//! The key-value state machine.

use bytes::{Bytes, BytesMut};
use recraft_core::StateMachine;
use recraft_types::codec::{Decode, Encode};
use recraft_types::{Error, LogIndex, RangeSet, Result};
use std::collections::BTreeMap;
use std::ops::Bound;

/// A command addressed to the key-value store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvCmd {
    /// Store `value` under `key`.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Bytes,
    },
    /// Read `key` (linearizable: gets travel through the log like writes).
    Get {
        /// The key.
        key: Vec<u8>,
        /// A client-unique nonce making the encoded command unique, so the
        /// linearizability checker can identify this exact operation in the
        /// apply order.
        nonce: u64,
    },
    /// Remove `key`.
    Delete {
        /// The key.
        key: Vec<u8>,
        /// A client-unique nonce (see [`KvCmd::Get::nonce`]).
        nonce: u64,
    },
    /// Bulk-load an encoded map (the TC baseline's data migration path).
    Ingest {
        /// An encoded `BTreeMap<Vec<u8>, Vec<u8>>` snapshot payload.
        data: Bytes,
    },
}

impl KvCmd {
    /// The key this command is routed by.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        match self {
            KvCmd::Put { key, .. } | KvCmd::Get { key, .. } | KvCmd::Delete { key, .. } => key,
            KvCmd::Ingest { .. } => b"",
        }
    }

    /// Encodes the command for transport through the log.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            KvCmd::Put { key, value } => {
                buf.extend_from_slice(&[0]);
                key.encode(&mut buf);
                value.encode(&mut buf);
            }
            KvCmd::Get { key, nonce } => {
                buf.extend_from_slice(&[1]);
                key.encode(&mut buf);
                nonce.encode(&mut buf);
            }
            KvCmd::Delete { key, nonce } => {
                buf.extend_from_slice(&[2]);
                key.encode(&mut buf);
                nonce.encode(&mut buf);
            }
            KvCmd::Ingest { data } => {
                buf.extend_from_slice(&[3]);
                data.encode(&mut buf);
            }
        }
        buf.freeze()
    }

    /// Decodes a command.
    ///
    /// # Errors
    /// Returns [`Error::Codec`] on malformed input.
    pub fn decode(raw: &Bytes) -> Result<KvCmd> {
        let mut buf = raw.clone();
        let tag = u8::decode(&mut buf)?;
        match tag {
            0 => Ok(KvCmd::Put {
                key: Vec::<u8>::decode(&mut buf)?,
                value: Bytes::decode(&mut buf)?,
            }),
            1 => Ok(KvCmd::Get {
                key: Vec::<u8>::decode(&mut buf)?,
                nonce: u64::decode(&mut buf)?,
            }),
            2 => Ok(KvCmd::Delete {
                key: Vec::<u8>::decode(&mut buf)?,
                nonce: u64::decode(&mut buf)?,
            }),
            3 => Ok(KvCmd::Ingest {
                data: Bytes::decode(&mut buf)?,
            }),
            t => Err(Error::Codec(format!("unknown KvCmd tag {t}"))),
        }
    }
}

/// The store's reply to a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResp {
    /// A write succeeded at `revision`.
    Ok {
        /// The store revision after the write.
        revision: u64,
    },
    /// A read result (`None` when the key is absent).
    Value {
        /// The store revision at the read.
        revision: u64,
        /// The value, if present.
        value: Option<Bytes>,
    },
}

impl KvResp {
    /// Encodes the response.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            KvResp::Ok { revision } => {
                buf.extend_from_slice(&[0]);
                revision.encode(&mut buf);
            }
            KvResp::Value { revision, value } => {
                buf.extend_from_slice(&[1]);
                revision.encode(&mut buf);
                value.clone().encode(&mut buf);
            }
        }
        buf.freeze()
    }

    /// Decodes a response.
    ///
    /// # Errors
    /// Returns [`Error::Codec`] on malformed input.
    pub fn decode(raw: &Bytes) -> Result<KvResp> {
        let mut buf = raw.clone();
        let tag = u8::decode(&mut buf)?;
        match tag {
            0 => Ok(KvResp::Ok {
                revision: u64::decode(&mut buf)?,
            }),
            1 => Ok(KvResp::Value {
                revision: u64::decode(&mut buf)?,
                value: Option::<Bytes>::decode(&mut buf)?,
            }),
            t => Err(Error::Codec(format!("unknown KvResp tag {t}"))),
        }
    }
}

/// A revisioned key-value store (the etcd layer's data model): every applied
/// command bumps the revision; snapshots are range-scoped encodings of the
/// map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvStore {
    entries: BTreeMap<Vec<u8>, Bytes>,
    revision: u64,
}

impl KvStore {
    /// An empty store at revision 0.
    #[must_use]
    pub fn new() -> Self {
        KvStore::default()
    }

    /// The number of stored pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no pairs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The current revision (count of applied commands).
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Direct read access (for tests and the router; linearizable reads go
    /// through the log as [`KvCmd::Get`]).
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<&Bytes> {
        self.entries.get(key)
    }

    /// Approximate data size in bytes (keys + values) — what a snapshot
    /// transfer moves.
    #[must_use]
    pub fn data_size(&self) -> usize {
        self.entries.iter().map(|(k, v)| k.len() + v.len()).sum()
    }

    /// The stored pairs inside `ranges`, in key order: one ordered scan per
    /// constituent range (they are sorted and disjoint), so keys outside
    /// `ranges` are never visited.
    fn pairs_in<'a>(
        &'a self,
        ranges: &'a RangeSet,
    ) -> impl Iterator<Item = (&'a Vec<u8>, &'a Bytes)> + Clone + 'a {
        ranges.ranges().iter().flat_map(move |r| {
            let end = r.end().map_or(Bound::Unbounded, Bound::Excluded);
            self.entries
                .range::<[u8], _>((Bound::Included(r.start()), end))
        })
    }

    /// The median resident key within `ranges`, as a split point: half the
    /// stored pairs land on each side, which balances a split far better
    /// than a byte-midpoint when the key population is skewed. `None` when
    /// fewer than two resident keys fall in `ranges` (nothing to balance —
    /// the caller falls back to a byte midpoint or skips the split).
    #[must_use]
    pub fn split_key(&self, ranges: &RangeSet) -> Option<Vec<u8>> {
        let resident: Vec<&Vec<u8>> = self.pairs_in(ranges).map(|(k, _)| k).collect();
        if resident.len() < 2 {
            return None;
        }
        // The BTreeMap iterates in key order: the midpoint element is the
        // median. It is strictly above at least one resident key, so a
        // split at it leaves both sides non-empty.
        Some(resident[resident.len() / 2].clone())
    }

    /// Applies one command: bumps the revision and answers. The single
    /// dispatch both [`StateMachine::apply`] and
    /// [`StateMachine::apply_batch`] go through — replicas must produce
    /// byte-identical responses whichever path delivered the entry.
    /// `DurableKv` routes its applies through the same dispatch, so the two
    /// machines answer byte-identically under identical logs.
    pub(crate) fn apply_cmd(&mut self, cmd: &Bytes) -> KvResp {
        self.revision += 1;
        match KvCmd::decode(cmd) {
            Ok(KvCmd::Put { key, value }) => {
                self.entries.insert(key, value);
                KvResp::Ok {
                    revision: self.revision,
                }
            }
            Ok(KvCmd::Get { key, .. }) => KvResp::Value {
                revision: self.revision,
                value: self.entries.get(&key).cloned(),
            },
            Ok(KvCmd::Delete { key, .. }) => {
                self.entries.remove(&key);
                KvResp::Ok {
                    revision: self.revision,
                }
            }
            Ok(KvCmd::Ingest { data }) => {
                // The payload is a snapshot blob (exactly what `snapshot()`
                // produces); its revision is ignored.
                if let Ok((_, map)) = Self::decode_blob(&data) {
                    self.entries.extend(map);
                }
                KvResp::Ok {
                    revision: self.revision,
                }
            }
            // Malformed commands still consume a revision (deterministic
            // across replicas) and answer Ok.
            Err(_) => KvResp::Ok {
                revision: self.revision,
            },
        }
    }

    /// The stored pairs (the `DurableKv` wrapper partitions these into
    /// segment files).
    pub(crate) fn entries(&self) -> &BTreeMap<Vec<u8>, Bytes> {
        &self.entries
    }

    /// Merges a snapshot-format blob (`[u64 revision][map]`) into the store:
    /// pairs extend the map, the revision takes the maximum. The chunked
    /// install path feeds one bounded blob at a time through this.
    pub(crate) fn absorb_snapshot_blob(&mut self, data: &Bytes) -> Result<()> {
        let (revision, map) = Self::decode_blob(data)?;
        self.entries.extend(map);
        self.revision = self.revision.max(revision);
        Ok(())
    }

    /// Replaces the whole state (recovery from decoded segment contents).
    pub(crate) fn set_state(&mut self, entries: BTreeMap<Vec<u8>, Bytes>, revision: u64) {
        self.entries = entries;
        self.revision = revision;
    }

    /// Encodes key-ordered pairs as a snapshot blob: `[u64 revision]
    /// [u32 count]`, then each key and value as a `u32`-length-prefixed byte
    /// string. Byte-for-byte the `revision` followed by a
    /// `BTreeMap<Vec<u8>, Vec<u8>>` encoding of the same pairs, written in
    /// one pass into a buffer sized to the exact length up front. The one
    /// encoder behind [`StateMachine::snapshot`] and `DurableKv`'s segments
    /// and chunks.
    pub(crate) fn encode_blob<'a, I>(revision: u64, pairs: I) -> Bytes
    where
        I: Iterator<Item = (&'a Vec<u8>, &'a Bytes)> + Clone,
    {
        // The sizing pass reads only lengths, which live in the map's nodes;
        // the bytes themselves are touched once, by the copy.
        let (count, body) = pairs.clone().fold((0usize, 0usize), |(n, b), (k, v)| {
            (n + 1, b + 8 + k.len() + v.len())
        });
        let mut buf = BytesMut::with_capacity(8 + 4 + body);
        revision.encode(&mut buf);
        u32::try_from(count)
            .expect("snapshot holds too many pairs")
            .encode(&mut buf);
        for (key, value) in pairs {
            key.encode(&mut buf);
            value.encode(&mut buf);
        }
        debug_assert_eq!(buf.len(), 8 + 4 + body, "pre-sized exactly");
        buf.freeze()
    }

    /// Decodes a snapshot blob into its revision and pairs. Values are
    /// windows of `data` (no copy), so they keep its buffer alive until
    /// each is overwritten or deleted.
    ///
    /// # Errors
    /// Returns [`Error::Codec`] on truncated or malformed input.
    pub(crate) fn decode_blob(data: &Bytes) -> Result<(u64, BTreeMap<Vec<u8>, Bytes>)> {
        let mut buf = data.clone();
        let revision = u64::decode(&mut buf)?;
        let count = u32::decode(&mut buf)? as usize;
        // Every pair carries two 4-byte length prefixes, so a count the
        // remaining input cannot hold never reserves past it.
        let mut pairs = Vec::with_capacity(count.min(buf.len() / 8));
        for _ in 0..count {
            let key = Vec::<u8>::decode(&mut buf)?;
            let value = Bytes::decode(&mut buf)?;
            pairs.push((key, value));
        }
        // Key-ordered input: `collect` bulk-builds the tree instead of
        // inserting pair by pair (a repeated key keeps its last value, as
        // inserting would).
        Ok((revision, pairs.into_iter().collect()))
    }
}

impl StateMachine for KvStore {
    fn apply(&mut self, _index: LogIndex, cmd: &Bytes) -> Bytes {
        self.apply_cmd(cmd).encode()
    }

    fn apply_batch(&mut self, entries: &[(LogIndex, Bytes)]) -> Vec<Bytes> {
        // One pre-sized pass over the whole committed run, through the same
        // dispatch as the single-entry path.
        let mut responses = Vec::with_capacity(entries.len());
        for (_, cmd) in entries {
            responses.push(self.apply_cmd(cmd).encode());
        }
        responses
    }

    fn query(&self, key: &[u8]) -> Bytes {
        // The ReadIndex fast path: answered from the applied map, no log
        // traffic and no revision bump.
        KvResp::Value {
            revision: self.revision,
            value: self.entries.get(key).cloned(),
        }
        .encode()
    }

    fn snapshot(&self, ranges: &RangeSet) -> Bytes {
        Self::encode_blob(self.revision, self.pairs_in(ranges))
    }

    fn restore(&mut self, data: &Bytes) -> Result<()> {
        let (revision, entries) = Self::decode_blob(data)?;
        self.revision = revision;
        self.entries = entries;
        Ok(())
    }

    fn restore_merged(&mut self, parts: &[Bytes]) -> Result<()> {
        let mut combined: BTreeMap<Vec<u8>, Bytes> = BTreeMap::new();
        let mut revision = 0u64;
        let mut pairs = 0usize;
        for part in parts {
            let (part_rev, map) = Self::decode_blob(part)?;
            revision = revision.max(part_rev);
            pairs += map.len();
            if combined.is_empty() {
                combined = map;
            } else {
                combined.extend(map);
            }
        }
        // A key present in two parts collapses to one entry.
        if combined.len() != pairs {
            return Err(Error::InvalidRange("merge parts overlap on a key".into()));
        }
        self.entries = combined;
        self.revision = revision;
        Ok(())
    }

    fn retain_ranges(&mut self, ranges: &RangeSet) {
        self.entries.retain(|k, _| ranges.contains(k));
    }

    fn resident_bytes(&self) -> usize {
        self.data_size()
    }

    fn split_hint(&self, ranges: &RangeSet) -> Option<Vec<u8>> {
        self.split_key(ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recraft_types::KeyRange;

    fn put(store: &mut KvStore, i: LogIndex, key: &str, value: &str) -> KvResp {
        let raw = store.apply(
            i,
            &KvCmd::Put {
                key: key.as_bytes().to_vec(),
                value: Bytes::from(value.to_string()),
            }
            .encode(),
        );
        KvResp::decode(&raw).unwrap()
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut store = KvStore::new();
        assert_eq!(
            put(&mut store, LogIndex(1), "a", "1"),
            KvResp::Ok { revision: 1 }
        );
        let got = store.apply(
            LogIndex(2),
            &KvCmd::Get {
                key: b"a".to_vec(),
                nonce: 0,
            }
            .encode(),
        );
        assert_eq!(
            KvResp::decode(&got).unwrap(),
            KvResp::Value {
                revision: 2,
                value: Some(Bytes::from_static(b"1"))
            }
        );
        store.apply(
            LogIndex(3),
            &KvCmd::Delete {
                key: b"a".to_vec(),
                nonce: 0,
            }
            .encode(),
        );
        let got = store.apply(
            LogIndex(4),
            &KvCmd::Get {
                key: b"a".to_vec(),
                nonce: 0,
            }
            .encode(),
        );
        assert_eq!(
            KvResp::decode(&got).unwrap(),
            KvResp::Value {
                revision: 4,
                value: None
            }
        );
        assert_eq!(store.revision(), 4);
    }

    #[test]
    fn cmd_codec_roundtrip() {
        let cmds = [
            KvCmd::Put {
                key: b"k".to_vec(),
                value: Bytes::from_static(b"v"),
            },
            KvCmd::Get {
                key: b"k".to_vec(),
                nonce: 1,
            },
            KvCmd::Delete {
                key: b"k".to_vec(),
                nonce: 2,
            },
            KvCmd::Ingest {
                data: Bytes::from_static(b"\x00\x00\x00\x00"),
            },
        ];
        for cmd in cmds {
            assert_eq!(KvCmd::decode(&cmd.encode()).unwrap(), cmd);
        }
        assert!(KvCmd::decode(&Bytes::from_static(b"\x09")).is_err());
    }

    #[test]
    fn resp_codec_roundtrip() {
        let resps = [
            KvResp::Ok { revision: 7 },
            KvResp::Value {
                revision: 9,
                value: Some(Bytes::from_static(b"x")),
            },
            KvResp::Value {
                revision: 9,
                value: None,
            },
        ];
        for r in resps {
            assert_eq!(KvResp::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn snapshot_restore_respects_ranges() {
        let mut store = KvStore::new();
        put(&mut store, LogIndex(1), "apple", "red");
        put(&mut store, LogIndex(2), "zebra", "striped");
        let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();
        let lo_snap = store.snapshot(&RangeSet::from(lo));
        let hi_snap = store.snapshot(&RangeSet::from(hi));

        let mut restored = KvStore::new();
        restored.restore(&lo_snap).unwrap();
        assert_eq!(restored.len(), 1);
        assert!(restored.get(b"apple").is_some());
        assert_eq!(restored.revision(), 2);

        let mut merged = KvStore::new();
        merged.restore_merged(&[lo_snap, hi_snap]).unwrap();
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn restore_merged_rejects_overlap() {
        let mut store = KvStore::new();
        put(&mut store, LogIndex(1), "k", "v");
        let snap = store.snapshot(&RangeSet::full());
        let mut merged = KvStore::new();
        assert!(merged.restore_merged(&[snap.clone(), snap]).is_err());
    }

    #[test]
    fn ingest_bulk_loads_snapshot_payload() {
        let mut src = KvStore::new();
        put(&mut src, LogIndex(1), "a", "1");
        put(&mut src, LogIndex(2), "b", "2");
        let snap = src.snapshot(&RangeSet::full());
        let mut dst = KvStore::new();
        put(&mut dst, LogIndex(1), "z", "9");
        dst.apply(LogIndex(2), &KvCmd::Ingest { data: snap }.encode());
        assert_eq!(dst.len(), 3, "ingest adds the snapshot's pairs");
        assert_eq!(dst.get(b"a"), Some(&Bytes::from_static(b"1")));
        assert_eq!(dst.get(b"z"), Some(&Bytes::from_static(b"9")));
    }

    #[test]
    fn query_reads_applied_state_without_revision_bump() {
        let mut store = KvStore::new();
        put(&mut store, LogIndex(1), "a", "1");
        let raw = store.query(b"a");
        assert_eq!(
            KvResp::decode(&raw).unwrap(),
            KvResp::Value {
                revision: 1,
                value: Some(Bytes::from_static(b"1"))
            }
        );
        let missing = store.query(b"nope");
        assert_eq!(
            KvResp::decode(&missing).unwrap(),
            KvResp::Value {
                revision: 1,
                value: None
            }
        );
        assert_eq!(store.revision(), 1, "queries do not consume revisions");
    }

    #[test]
    fn retain_ranges_prunes() {
        let mut store = KvStore::new();
        put(&mut store, LogIndex(1), "apple", "red");
        put(&mut store, LogIndex(2), "zebra", "striped");
        let (lo, _) = KeyRange::full().split_at(b"m").unwrap();
        store.retain_ranges(&RangeSet::from(lo));
        assert_eq!(store.len(), 1);
        assert!(store.get(b"zebra").is_none());
    }

    #[test]
    fn data_size_counts_bytes() {
        let mut store = KvStore::new();
        put(&mut store, LogIndex(1), "abc", "wxyz");
        assert_eq!(store.data_size(), 7);
    }

    #[test]
    fn apply_batch_matches_sequential_apply() {
        use recraft_core::StateMachine as _;
        let cmds: Vec<Bytes> = vec![
            KvCmd::Put {
                key: b"a".to_vec(),
                value: Bytes::from_static(b"1"),
            }
            .encode(),
            KvCmd::Get {
                key: b"a".to_vec(),
                nonce: 7,
            }
            .encode(),
            Bytes::from_static(b"\xFF\xFF"), // malformed still consumes a slot
            KvCmd::Delete {
                key: b"a".to_vec(),
                nonce: 8,
            }
            .encode(),
            KvCmd::Get {
                key: b"a".to_vec(),
                nonce: 9,
            }
            .encode(),
        ];
        let mut seq = KvStore::new();
        let seq_resps: Vec<Bytes> = cmds
            .iter()
            .enumerate()
            .map(|(i, c)| seq.apply(LogIndex(i as u64 + 1), c))
            .collect();
        let mut batched = KvStore::new();
        let entries: Vec<(LogIndex, Bytes)> = cmds
            .iter()
            .enumerate()
            .map(|(i, c)| (LogIndex(i as u64 + 1), c.clone()))
            .collect();
        let batch_resps = batched.apply_batch(&entries);
        assert_eq!(seq_resps, batch_resps, "byte-identical responses");
        assert_eq!(seq, batched, "identical end state");
        assert_eq!(batched.revision(), cmds.len() as u64);
    }

    /// A snapshot's pairs as the original per-element codec typed them.
    type Plain = BTreeMap<Vec<u8>, Vec<u8>>;

    /// The original codec's writer, spelled out byte by byte: the revision,
    /// then `BTreeMap<Vec<u8>, Vec<u8>>::encode` as the per-element codec
    /// loop produced it.
    fn legacy_blob(revision: u64, map: &Plain) -> Bytes {
        use bytes::BufMut;
        let mut buf = BytesMut::new();
        buf.put_u64(revision);
        buf.put_u32(map.len() as u32);
        for (k, v) in map {
            for bytes in [k, v] {
                buf.put_u32(bytes.len() as u32);
                for b in bytes {
                    buf.put_u8(*b);
                }
            }
        }
        buf.freeze()
    }

    /// The original codec's reader, one bounds-checked byte at a time.
    fn legacy_decode(data: &Bytes) -> Result<(u64, Plain)> {
        let mut buf = data.clone();
        let revision = u64::decode(&mut buf)?;
        let mut map = BTreeMap::new();
        for _ in 0..u32::decode(&mut buf)? {
            let mut pair = [Vec::new(), Vec::new()];
            for bytes in &mut pair {
                for _ in 0..u32::decode(&mut buf)? {
                    bytes.push(u8::decode(&mut buf)?);
                }
            }
            let [k, v] = pair;
            map.insert(k, v);
        }
        Ok((revision, map))
    }

    fn store_of(revision: u64, map: &Plain) -> KvStore {
        let mut store = KvStore::new();
        store.set_state(
            map.iter()
                .map(|(k, v)| (k.clone(), Bytes::from(v.clone())))
                .collect(),
            revision,
        );
        store
    }

    proptest::proptest! {
        /// The snapshot wire format is unchanged in both directions, so a
        /// `WalLog` `snapshot.bin` or a `DurableKv` segment written by the
        /// per-element codec recovers, and the one-pass output decodes
        /// under the old reader.
        #[test]
        fn snapshot_format_matches_per_element_codec(
            revision: u64,
            map: Plain,
            split in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..3),
        ) {
            let old = legacy_blob(revision, &map);
            let expected = store_of(revision, &map);
            let mut restored = KvStore::new();
            restored.restore(&old).unwrap();
            proptest::prop_assert_eq!(&restored, &expected);

            let snap = expected.snapshot(&RangeSet::full());
            proptest::prop_assert_eq!(&snap, &old, "byte-identical output");
            proptest::prop_assert_eq!(legacy_decode(&snap).unwrap(), (revision, map.clone()));

            // Range-scoped parts written the old way merge back to the
            // whole; the one-pass parts are the same bytes.
            let (lo, hi) = KeyRange::full().split_at(&split).unwrap();
            let parts: Vec<Bytes> = [lo, hi]
                .into_iter()
                .map(|r| {
                    let part: Plain = map
                        .iter()
                        .filter(|(k, _)| r.contains(k))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    let old_part = legacy_blob(revision, &part);
                    assert_eq!(expected.snapshot(&RangeSet::from(r)), old_part);
                    old_part
                })
                .collect();
            let mut merged = KvStore::new();
            merged.restore_merged(&parts).unwrap();
            proptest::prop_assert_eq!(&merged, &expected);
        }
    }

    #[test]
    fn malformed_command_is_deterministic() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        let junk = Bytes::from_static(b"\xFF\xFF");
        let ra = a.apply(LogIndex(1), &junk);
        let rb = b.apply(LogIndex(1), &junk);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }
}
