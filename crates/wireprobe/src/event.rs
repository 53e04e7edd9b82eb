//! Probe event vocabulary: one record per message-level transport action.

use nbody_trace::{Json, Phase};

/// What a probe event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// A payload was handed to the transport (enqueue side).
    Send,
    /// A payload was taken off the transport (dequeue side).
    Recv,
}

/// Every probe kind, for iteration and label round-trips.
pub const ALL_PROBE_KINDS: [ProbeKind; 2] = [ProbeKind::Send, ProbeKind::Recv];

impl ProbeKind {
    /// Stable label used in serialized logs.
    pub fn label(self) -> &'static str {
        match self {
            ProbeKind::Send => "send",
            ProbeKind::Recv => "recv",
        }
    }

    /// Inverse of [`label`](ProbeKind::label).
    pub fn from_label(label: &str) -> Option<ProbeKind> {
        ALL_PROBE_KINDS.into_iter().find(|k| k.label() == label)
    }
}

/// One message-level probe record.
///
/// `count` is the payload length in *elements* (particles for the CA
/// pipeline phases), `bytes` the in-memory payload size the transport
/// actually moved. `t_secs` is relative to the run's shared probe epoch,
/// so send/recv stamps from different rank threads are directly comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct MsgEvent {
    /// What happened.
    pub kind: ProbeKind,
    /// Global rank of the sender.
    pub src: u32,
    /// Global rank of the receiver.
    pub dst: u32,
    /// Communicator the message travelled on (0 = world).
    pub comm: u64,
    /// Message tag.
    pub tag: u64,
    /// Pipeline phase active when the event fired.
    pub phase: Phase,
    /// Payload length in elements.
    pub count: u64,
    /// Payload size in bytes as moved by the transport.
    pub bytes: u64,
    /// Seconds since the shared probe epoch.
    pub t_secs: f64,
}

impl MsgEvent {
    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str(self.kind.label().into())),
            ("src".into(), Json::Num(self.src as f64)),
            ("dst".into(), Json::Num(self.dst as f64)),
            ("comm".into(), Json::Num(self.comm as f64)),
            ("tag".into(), Json::Num(self.tag as f64)),
            ("phase".into(), Json::Str(self.phase.label().into())),
            ("count".into(), Json::Num(self.count as f64)),
            ("bytes".into(), Json::Num(self.bytes as f64)),
            ("t".into(), Json::Num(self.t_secs)),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<MsgEvent, String> {
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("probe event missing numeric '{key}'"))
        };
        let kind_label = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("probe event missing 'kind'")?;
        let phase_label = v
            .get("phase")
            .and_then(Json::as_str)
            .ok_or("probe event missing 'phase'")?;
        Ok(MsgEvent {
            kind: ProbeKind::from_label(kind_label)
                .ok_or_else(|| format!("unknown probe kind '{kind_label}'"))?,
            src: num("src")? as u32,
            dst: num("dst")? as u32,
            comm: num("comm")? as u64,
            tag: num("tag")? as u64,
            phase: Phase::from_label(phase_label)
                .ok_or_else(|| format!("unknown phase '{phase_label}'"))?,
            count: num("count")? as u64,
            bytes: num("bytes")? as u64,
            t_secs: num("t")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_round_trip() {
        for kind in ALL_PROBE_KINDS {
            assert_eq!(ProbeKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(ProbeKind::from_label("bogus"), None);
    }

    #[test]
    fn msg_event_json_round_trips() {
        let e = MsgEvent {
            kind: ProbeKind::Send,
            src: 3,
            dst: 1,
            comm: 0,
            tag: 0x3000,
            phase: Phase::Shift,
            count: 128,
            bytes: 128 * 56,
            t_secs: 0.125,
        };
        let back = MsgEvent::from_json(&e.to_json()).unwrap();
        assert_eq!(back, e);
    }
}
