//! What subcommands read and write: input files, output files (each
//! artifact in one encoding), and the one-line JSON summary.

use std::path::Path;
use std::str::FromStr;

use nbody_trace::Json;

/// Read and parse `path`; both failures read the same for every format.
pub fn load<T>(path: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// [`load`] for the formats that are a JSON document.
pub fn load_json<T>(
    path: &str,
    from: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<T, String> {
    load(path, |text| Json::parse(text).and_then(|doc| from(&doc)))
}

/// The `explicit` input, which must exist, else `default` if it is there.
pub fn named_or_present(explicit: Option<String>, default: &str) -> Option<String> {
    explicit.or_else(|| Path::new(default).exists().then(|| default.to_string()))
}

/// Write `body`, the rendered `what`, to `path`, creating its directory.
pub fn write(path: &str, what: &str, body: &str) -> Result<(), String> {
    let file = Path::new(path);
    let dir = file.parent().filter(|d| !d.as_os_str().is_empty());
    dir.map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(file, body))
        .map_err(|e| format!("cannot write {what} to {path}: {e}"))
}

/// Where `--trace`, `--metrics`, `--out` and `--roofline-out` write their
/// artifact, whose one encoding is JSON. A path with a `csv` or `prom`
/// extension asks for an encoding the artifact does not have: it is
/// refused at start-up, so a script that wants one fails instead of
/// getting JSON under that name.
pub struct JsonPath(String);

impl FromStr for JsonPath {
    type Err = ();

    fn from_str(path: &str) -> Result<JsonPath, ()> {
        match Path::new(path).extension().and_then(|e| e.to_str()) {
            Some("csv" | "prom") => Err(()),
            _ => Ok(JsonPath(path.to_string())),
        }
    }
}

impl From<JsonPath> for String {
    fn from(JsonPath(path): JsonPath) -> String {
        path
    }
}

/// A JSON object in insertion order: the summary a subcommand ends with
/// (always the last line on stdout), and the rows nested in it.
#[derive(Default)]
pub struct Summary(Vec<(String, Json)>);

impl Summary {
    /// The summary of subcommand `cmd`, which the first key names.
    pub fn of(cmd: &str) -> Summary {
        let mut s = Summary::default();
        s.put("cmd", cmd);
        s
    }

    pub fn put(&mut self, key: &str, value: impl Into<Json>) -> &mut Summary {
        self.0.push((key.to_string(), value.into()));
        self
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(self.0.clone())
    }

    pub fn print(&self) {
        println!("{}", self.to_json());
    }
}
