//! Options take `key=value`, `--key=value`, or `--key value` form; a
//! `--flag` with no value is the boolean `true`; anything else is
//! positional. There is no table of known options: a getter marks the key
//! it asks for as read, and [`Opts::finish`] — called after the last read
//! and before the first side effect — rejects what is left. So a key is
//! valid exactly where some code path consumes it (`checkpoint-every` only
//! next to `--checkpoint-dir`), and a new option needs no second edit.

use std::collections::HashMap;
use std::str::FromStr;

use super::Failure;

pub struct Opts {
    cmd: String,
    /// Each value with whether a getter has asked for its key.
    values: HashMap<String, (String, bool)>,
}

impl Opts {
    /// Split the arguments after `cmd` into options and positionals.
    pub fn parse(cmd: &str, args: &[String]) -> (Opts, Vec<String>) {
        let mut values = HashMap::new();
        let mut positional = Vec::new();
        let mut args = args.iter().peekable();
        while let Some(a) = args.next() {
            let body = a.strip_prefix("--").unwrap_or(a);
            if let Some((k, v)) = body.split_once('=') {
                values.insert(k.to_string(), (v.to_string(), false));
            } else if a.starts_with("--") {
                // `--key value`, unless what follows is itself an option.
                let value = args
                    .next_if(|v| !v.starts_with("--") && !v.contains('='))
                    .map_or("true", String::as_str);
                values.insert(body.to_string(), (value.to_string(), false));
            } else {
                positional.push(a.clone());
            }
        }
        let cmd = cmd.to_string();
        (Opts { cmd, values }, positional)
    }

    /// The value of `key`, if given; one that does not parse as `T` is a
    /// start-up error naming both, never `None`.
    pub fn opt<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, Failure> {
        let Some((value, read)) = self.values.get_mut(key) else {
            return Ok(None);
        };
        *read = true;
        // The type's own name, without its module path.
        let expected = std::any::type_name::<T>().rsplit("::").next();
        match value.parse() {
            Ok(v) => Ok(Some(v)),
            Err(_) => Err(invalid(key, value, expected.unwrap_or_default())),
        }
    }

    /// The value of `key`, or `default`; a switch is `get(key, false)`.
    pub fn get<T: FromStr>(&mut self, key: &str, default: T) -> Result<T, Failure> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// Reject an option no getter asked for (the first, in key order).
    pub fn finish(&self) -> Result<(), Failure> {
        let unused = self.values.iter().filter(|(_, (_, read))| !read);
        match unused.map(|(key, _)| key).min() {
            None => Ok(()),
            Some(key) => Err(Failure::startup(format!(
                "option '{key}' is not used by '{}'",
                self.cmd
            ))),
        }
    }
}

/// The start-up error for a value its option cannot take.
pub fn invalid(key: &str, value: &str, expected: &str) -> Failure {
    Failure::startup(format!(
        "invalid value '{value}' for option '{key}' (expected {expected})"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> (Opts, Vec<String>) {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Opts::parse("run", &args)
    }

    #[test]
    fn the_three_spellings_are_one_option() {
        let (mut opts, positional) = parse(&["n=64", "--p=4", "--steps", "3"]);
        assert!(positional.is_empty());
        assert_eq!(opts.get("n", 0usize).unwrap(), 64);
        assert_eq!(opts.get("p", 0usize).unwrap(), 4);
        assert_eq!(opts.get("steps", 0usize).unwrap(), 3);
        assert_eq!(opts.get("c", 2usize).unwrap(), 2, "absent: the default");
        assert!(opts.finish().is_ok());
    }

    #[test]
    fn a_bare_flag_is_true_and_never_takes_an_option_as_its_value() {
        let (mut opts, positional) =
            parse(&["--health", "--trace=t.json", "--wire", "n=8", "--profile"]);
        assert!(positional.is_empty());
        for flag in ["health", "wire", "profile"] {
            assert!(opts.get(flag, false).unwrap(), "{flag}");
        }
        assert!(!opts.get("record", false).unwrap());
        let (mut opts, _) = parse(&["--profile=false"]);
        assert!(!opts.get("profile", true).unwrap());
    }

    #[test]
    fn key_value_takes_one_token_and_leaves_positionals_alone() {
        let (mut opts, positional) = parse(&["t.json", "--metrics", "m.json", "u.json", "c=2"]);
        assert_eq!(positional, ["t.json", "u.json"]);
        assert_eq!(
            opts.opt::<String>("metrics").unwrap().as_deref(),
            Some("m.json")
        );
        // A switch written before a positional takes it as its value; the
        // boolean getter refuses it instead of reading `true`.
        let (mut opts, positional) = parse(&["--record", "t.jsonl"]);
        assert!(positional.is_empty());
        let e = opts.get("record", false).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(
            e.message.contains("'record'") && e.message.contains("'t.jsonl'"),
            "{}",
            e.message
        );
    }

    #[test]
    fn a_malformed_value_is_an_error_naming_key_and_value() {
        let (mut opts, _) = parse(&["n=1o24", "dt=fast"]);
        let e = opts.get("n", 1024usize).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(
            e.message.contains("'n'") && e.message.contains("'1o24'"),
            "{}",
            e.message
        );
        assert!(opts.opt::<f64>("dt").is_err());
    }

    #[test]
    fn finish_rejects_exactly_the_keys_no_getter_asked_for() {
        let (mut opts, _) = parse(&["n=8", "--trase=out.json", "checkpoint-every=5"]);
        opts.get("n", 0usize).unwrap();
        // A conditional read that did not happen leaves its key unused.
        let checkpointing = opts.opt::<String>("checkpoint-dir").unwrap().is_some();
        if checkpointing {
            opts.get("checkpoint-every", 1usize).unwrap();
        }
        let e = opts.finish().unwrap_err();
        assert_eq!(e.code, 2);
        assert_eq!(e.message, "option 'checkpoint-every' is not used by 'run'");

        let (mut opts, _) = parse(&["--checkpoint-dir=d", "checkpoint-every=5", "--trase=x"]);
        if opts.opt::<String>("checkpoint-dir").unwrap().is_some() {
            opts.get("checkpoint-every", 1usize).unwrap();
        }
        assert_eq!(
            opts.finish().unwrap_err().message,
            "option 'trase' is not used by 'run'"
        );
        // A key read twice, or read and malformed, still counts as read.
        let (mut opts, _) = parse(&["c=x"]);
        assert!(opts.opt::<usize>("c").is_err());
        assert!(opts.finish().is_ok());
    }
}
