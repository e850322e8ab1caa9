//! Ready-made state machines: a key-value store and a counter.
//!
//! Commands and responses are written with [`tw_proto::frame`]'s cursors
//! (a tag byte, then varints and length-prefixed strings), so they decode
//! under the same bounds and error type as the protocol messages.

use crate::machine::StateMachine;
use bytes::Bytes;
use std::collections::BTreeMap;
use tw_proto::{FrameRef, WireCursor, WireError};

/// `to_bytes` / `from_bytes` over a type's `encode` / `decode`.
macro_rules! wire_bytes {
    ($($ty:ty),*) => {$(impl $ty {
        /// Encode into a fresh buffer.
        pub fn to_bytes(&self) -> Bytes {
            let mut buf = Vec::new();
            self.encode(&mut WireCursor::new(&mut buf));
            Bytes::from(buf)
        }
        /// Decode a complete value, rejecting trailing bytes.
        pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
            let mut f = FrameRef::new(bytes);
            let v = Self::decode(&mut f)?;
            f.finish().map(|()| v)
        }
    })*};
}
wire_bytes!(KvCmd, KvResponse, CounterCmd);

// ---------------------------------------------------------------- KvStore

/// Commands of the replicated key-value store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvCmd {
    /// Set `key` to `value`; responds with the previous value.
    Put {
        /// Key.
        key: String,
        /// New value.
        value: String,
    },
    /// Read `key`.
    Get {
        /// Key.
        key: String,
    },
    /// Remove `key`; responds with the removed value.
    Del {
        /// Key.
        key: String,
    },
    /// Compare-and-swap: set `key` to `new` iff it currently equals
    /// `expect` (`None` = key absent).
    Cas {
        /// Key.
        key: String,
        /// Expected current value.
        expect: Option<String>,
        /// Replacement value.
        new: String,
    },
}

/// Responses of the key-value store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResponse {
    /// The value (or previous value), if any.
    Value(Option<String>),
    /// CAS verdict.
    CasResult {
        /// Whether the swap happened.
        swapped: bool,
        /// The value actually present at decision time.
        actual: Option<String>,
    },
    /// The command bytes did not decode.
    BadCommand,
}

fn bad_tag(what: &'static str, tag: u8) -> WireError {
    WireError::BadTag { what, tag }
}

fn get_string(f: &mut FrameRef<'_>) -> Result<String, WireError> {
    String::from_utf8(f.bytes("string")?.to_vec()).map_err(|_| bad_tag("utf8 string", 0))
}

fn put_opt_string(w: &mut WireCursor, s: &Option<String>) {
    w.put_bool(s.is_some());
    if let Some(v) = s {
        w.put_bytes(v.as_bytes());
    }
}

fn get_opt_string(f: &mut FrameRef<'_>) -> Result<Option<String>, WireError> {
    f.bool("option")?.then(|| get_string(f)).transpose()
}

impl KvCmd {
    /// Append this command (tag byte, then fields).
    pub fn encode(&self, w: &mut WireCursor) {
        match self {
            KvCmd::Put { key, value } => {
                w.put_u8(0);
                w.put_bytes(key.as_bytes());
                w.put_bytes(value.as_bytes());
            }
            KvCmd::Get { key } => {
                w.put_u8(1);
                w.put_bytes(key.as_bytes());
            }
            KvCmd::Del { key } => {
                w.put_u8(2);
                w.put_bytes(key.as_bytes());
            }
            KvCmd::Cas { key, expect, new } => {
                w.put_u8(3);
                w.put_bytes(key.as_bytes());
                put_opt_string(w, expect);
                w.put_bytes(new.as_bytes());
            }
        }
    }

    /// Consume one command from the front of `f`.
    pub fn decode(f: &mut FrameRef<'_>) -> Result<Self, WireError> {
        Ok(match f.u8("kv-cmd")? {
            0 => KvCmd::Put {
                key: get_string(f)?,
                value: get_string(f)?,
            },
            1 => KvCmd::Get {
                key: get_string(f)?,
            },
            2 => KvCmd::Del {
                key: get_string(f)?,
            },
            3 => KvCmd::Cas {
                key: get_string(f)?,
                expect: get_opt_string(f)?,
                new: get_string(f)?,
            },
            tag => return Err(bad_tag("kv-cmd", tag)),
        })
    }
}

impl KvResponse {
    /// Append this response (tag byte, then fields).
    pub fn encode(&self, w: &mut WireCursor) {
        match self {
            KvResponse::Value(v) => {
                w.put_u8(0);
                put_opt_string(w, v);
            }
            KvResponse::CasResult { swapped, actual } => {
                w.put_u8(1);
                w.put_bool(*swapped);
                put_opt_string(w, actual);
            }
            KvResponse::BadCommand => w.put_u8(2),
        }
    }

    /// Consume one response from the front of `f`.
    pub fn decode(f: &mut FrameRef<'_>) -> Result<Self, WireError> {
        Ok(match f.u8("kv-response")? {
            0 => KvResponse::Value(get_opt_string(f)?),
            1 => KvResponse::CasResult {
                swapped: f.bool("swapped")?,
                actual: get_opt_string(f)?,
            },
            2 => KvResponse::BadCommand,
            tag => return Err(bad_tag("kv-response", tag)),
        })
    }
}

/// The replicated key-value store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<String, String>,
}

impl KvStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read a key locally (not replicated — for tests and observers).
    pub fn get(&self, key: &str) -> Option<&String> {
        self.map.get(key)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl StateMachine for KvStore {
    fn apply(&mut self, command: &[u8]) -> Bytes {
        let resp = match KvCmd::from_bytes(command) {
            Err(_) => KvResponse::BadCommand,
            Ok(KvCmd::Put { key, value }) => KvResponse::Value(self.map.insert(key, value)),
            Ok(KvCmd::Get { key }) => KvResponse::Value(self.map.get(&key).cloned()),
            Ok(KvCmd::Del { key }) => KvResponse::Value(self.map.remove(&key)),
            Ok(KvCmd::Cas { key, expect, new }) => {
                let actual = self.map.get(&key).cloned();
                let swapped = actual == expect;
                if swapped {
                    self.map.insert(key, new);
                }
                KvResponse::CasResult { swapped, actual }
            }
        };
        resp.to_bytes()
    }

    fn snapshot(&self) -> Bytes {
        let mut buf = Vec::new();
        let mut w = WireCursor::new(&mut buf);
        w.put_uvarint(self.map.len() as u64);
        for (k, v) in &self.map {
            w.put_bytes(k.as_bytes());
            w.put_bytes(v.as_bytes());
        }
        Bytes::from(buf)
    }

    fn restore(snapshot: &[u8]) -> Self {
        let mut f = FrameRef::new(snapshot);
        let n = f.uvarint("kv snapshot length").expect("kv snapshot length");
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let k = get_string(&mut f).expect("kv snapshot key");
            let v = get_string(&mut f).expect("kv snapshot value");
            map.insert(k, v);
        }
        KvStore { map }
    }
}

// ---------------------------------------------------------------- Counter

/// Commands of the replicated counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterCmd {
    /// Add a (possibly negative) amount; responds with the new total.
    Add(i64),
    /// Read the total.
    Read,
}

impl CounterCmd {
    /// Append this command (tag byte, then the amount).
    pub fn encode(&self, w: &mut WireCursor) {
        match self {
            CounterCmd::Add(v) => {
                w.put_u8(0);
                w.put_ivarint(*v);
            }
            CounterCmd::Read => w.put_u8(1),
        }
    }

    /// Consume one command from the front of `f`.
    pub fn decode(f: &mut FrameRef<'_>) -> Result<Self, WireError> {
        Ok(match f.u8("counter-cmd")? {
            0 => CounterCmd::Add(f.ivarint("amount")?),
            1 => CounterCmd::Read,
            tag => return Err(bad_tag("counter-cmd", tag)),
        })
    }
}

/// The replicated counter; responses are the little-endian total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    total: i64,
}

impl Counter {
    /// The current total (local observer access).
    pub fn total(&self) -> i64 {
        self.total
    }
}

impl StateMachine for Counter {
    fn apply(&mut self, command: &[u8]) -> Bytes {
        if let Ok(CounterCmd::Add(v)) = CounterCmd::from_bytes(command) {
            self.total += v;
        }
        Bytes::from(self.total.to_le_bytes().to_vec())
    }

    fn snapshot(&self) -> Bytes {
        Bytes::from(self.total.to_le_bytes().to_vec())
    }

    fn restore(snapshot: &[u8]) -> Self {
        let total = i64::from_le_bytes(snapshot.try_into().expect("counter snapshot"));
        Counter { total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_commands_round_trip() {
        let mut kv = KvStore::new();
        for cmd in [
            KvCmd::Put {
                key: "k".into(),
                value: "v".into(),
            },
            KvCmd::Get { key: "k".into() },
            KvCmd::Del { key: "k".into() },
            KvCmd::Cas {
                key: "k".into(),
                expect: Some("old".into()),
                new: "new".into(),
            },
            KvCmd::Cas {
                key: "k".into(),
                expect: None,
                new: "new".into(),
            },
        ] {
            let b = cmd.to_bytes();
            assert_eq!(KvCmd::from_bytes(&b).unwrap(), cmd);
            for cut in 0..b.len() {
                assert!(KvCmd::from_bytes(&b[..cut]).is_err(), "cut at {cut}");
                let r = kv.apply(&b[..cut]);
                assert_eq!(KvResponse::from_bytes(&r).unwrap(), KvResponse::BadCommand);
            }
        }
        assert!(kv.is_empty());
    }

    #[test]
    fn kv_semantics() {
        let mut kv = KvStore::new();
        let r = kv.apply(
            &KvCmd::Put {
                key: "a".into(),
                value: "1".into(),
            }
            .to_bytes(),
        );
        assert_eq!(KvResponse::from_bytes(&r).unwrap(), KvResponse::Value(None));
        let r = kv.apply(&KvCmd::Get { key: "a".into() }.to_bytes());
        assert_eq!(
            KvResponse::from_bytes(&r).unwrap(),
            KvResponse::Value(Some("1".into()))
        );
        let r = kv.apply(
            &KvCmd::Cas {
                key: "a".into(),
                expect: Some("1".into()),
                new: "2".into(),
            }
            .to_bytes(),
        );
        assert_eq!(
            KvResponse::from_bytes(&r).unwrap(),
            KvResponse::CasResult {
                swapped: true,
                actual: Some("1".into())
            }
        );
        let r = kv.apply(
            &KvCmd::Cas {
                key: "a".into(),
                expect: Some("1".into()),
                new: "3".into(),
            }
            .to_bytes(),
        );
        assert_eq!(
            KvResponse::from_bytes(&r).unwrap(),
            KvResponse::CasResult {
                swapped: false,
                actual: Some("2".into())
            }
        );
        let r = kv.apply(&KvCmd::Del { key: "a".into() }.to_bytes());
        assert_eq!(
            KvResponse::from_bytes(&r).unwrap(),
            KvResponse::Value(Some("2".into()))
        );
        assert!(kv.is_empty());
    }

    #[test]
    fn kv_snapshot_round_trip() {
        let mut kv = KvStore::new();
        for i in 0..20 {
            kv.apply(
                &KvCmd::Put {
                    key: format!("key-{i}"),
                    value: format!("value-{i}"),
                }
                .to_bytes(),
            );
        }
        let snap = kv.snapshot();
        let restored = KvStore::restore(&snap);
        assert_eq!(restored, kv);
        assert_eq!(restored.len(), 20);
        assert_eq!(restored.get("key-7"), Some(&"value-7".to_string()));
    }

    #[test]
    fn kv_rejects_garbage_gracefully() {
        let mut kv = KvStore::new();
        // A bad tag; a Put whose well-framed key is not UTF-8; a Get
        // whose key claims more bytes than any frame may hold.
        let bad_utf8 = vec![0, 2, 0xFF, 0xFE, 1, b'v'];
        let mut over_long = vec![1u8];
        WireCursor::new(&mut over_long).put_uvarint(u64::MAX);
        for bytes in [b"\xff\xff\xff".to_vec(), bad_utf8, over_long] {
            assert!(KvCmd::from_bytes(&bytes).is_err(), "{bytes:?}");
            let r = kv.apply(&bytes);
            assert_eq!(KvResponse::from_bytes(&r).unwrap(), KvResponse::BadCommand);
        }
        assert!(kv.is_empty());
    }

    #[test]
    fn counter_semantics_and_snapshot() {
        let mut c = Counter::default();
        c.apply(&CounterCmd::Add(5).to_bytes());
        let r = c.apply(&CounterCmd::Add(-2).to_bytes());
        assert_eq!(i64::from_le_bytes(r.as_ref().try_into().unwrap()), 3);
        let r = c.apply(&CounterCmd::Read.to_bytes());
        assert_eq!(i64::from_le_bytes(r.as_ref().try_into().unwrap()), 3);
        let restored = Counter::restore(&c.snapshot());
        assert_eq!(restored.total(), 3);
    }
}
