//! Correctness checks over the generator's op log. Any violation fails the
//! run.

use crate::gen::{Answer, Kind, Op, NEVER};
use std::collections::{BTreeMap, HashMap};

/// Every confirmed op has a sane timeline and every confirmed get an
/// answer; unconfirmed ops are what the run reports as failed.
///
/// # Errors
/// Describes the first op whose record is inconsistent.
pub fn check_accounting(ops: &[Op]) -> Result<(), String> {
    for (id, op) in ops.iter().enumerate() {
        if !op.confirmed() {
            continue;
        }
        if op.sent == NEVER || op.done < op.sent || op.sent < op.due {
            return Err(format!(
                "op {id} confirmed with an impossible timeline: {op:?}"
            ));
        }
        if op.kind == Kind::Get && op.read.is_none() {
            return Err(format!("get {id} confirmed without an answer"));
        }
    }
    Ok(())
}

/// Per key, the puts confirmed so far ordered by confirmation time, with a
/// running maximum of their op ids (ascending op id is apply order: one
/// session writes a key within a phase, and phases drain before the next).
struct AckIndex {
    by_key: HashMap<u32, Vec<(u64, u32)>>,
}

impl AckIndex {
    fn new(ops: &[Op]) -> AckIndex {
        let mut by_key: HashMap<u32, Vec<(u64, u32)>> = HashMap::new();
        for (id, op) in ops.iter().enumerate() {
            if op.kind == Kind::Put && op.confirmed() {
                by_key.entry(op.key).or_default().push((op.done, id as u32));
            }
        }
        for acks in by_key.values_mut() {
            acks.sort_unstable();
            let mut newest = 0;
            for a in acks.iter_mut() {
                newest = newest.max(a.1);
                a.1 = newest;
            }
        }
        AckIndex { by_key }
    }

    /// The newest put to `key` confirmed strictly before `t`.
    fn newest_before(&self, key: u32, t: u64) -> Option<u32> {
        let acks = self.by_key.get(&key)?;
        let n = acks.partition_point(|(done, _)| *done < t);
        (n > 0).then(|| acks[n - 1].1)
    }
}

/// Read freshness: every get returns a value some put wrote to that key,
/// never one older than the newest put acknowledged before the get was
/// first sent (and "absent" only if no put had been acknowledged).
///
/// # Errors
/// Describes the first stale or foreign read.
pub fn check_reads(ops: &[Op]) -> Result<(), String> {
    let acks = AckIndex::new(ops);
    for (id, op) in ops.iter().enumerate() {
        let Some(read) = op.read else { continue };
        let floor = acks.newest_before(op.key, op.sent);
        match read {
            Answer::Garbage => {
                return Err(format!(
                    "get {id} of key {} returned bytes no put wrote",
                    op.key
                ))
            }
            Answer::Absent => {
                if let Some(f) = floor {
                    return Err(format!("get {id} of key {} saw no value, but put {f} was acknowledged before it was sent", op.key));
                }
            }
            Answer::Value(put) => {
                let Some(p) = ops.get(put as usize) else {
                    return Err(format!("get {id} returned the value of unknown op {put}"));
                };
                if p.kind != Kind::Put || p.key != op.key {
                    return Err(format!(
                        "get {id} of key {} returned the value of op {put}, which wrote key {}",
                        op.key, p.key
                    ));
                }
                if floor.is_some_and(|f| put < f) {
                    return Err(format!(
                        "stale read: get {id} of key {} returned put {put}, but put {} was acknowledged before it was sent",
                        op.key,
                        floor.unwrap_or_default()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Final read-back: the gets in `readback` (one per key, issued after every
/// put drained) must each return the newest confirmed put to that key — or
/// a newer put that was never confirmed, whose fate the client cannot
/// know.
///
/// # Errors
/// Describes the first key whose final value is wrong.
pub fn check_readback(ops: &[Op], readback: std::ops::Range<usize>) -> Result<(), String> {
    let mut newest: HashMap<u32, u32> = HashMap::new();
    for (id, op) in ops[..readback.start].iter().enumerate() {
        if op.kind == Kind::Put && op.confirmed() {
            let e = newest.entry(op.key).or_insert(0);
            *e = (*e).max(id as u32);
        }
    }
    for id in readback {
        let get = &ops[id];
        if !get.confirmed() {
            continue; // counted as failed
        }
        let want = newest.get(&get.key).copied();
        let ok = match get.read {
            Some(Answer::Absent) => want.is_none(),
            Some(Answer::Value(put)) => {
                Some(put) == want
                    || (ops[put as usize].kind == Kind::Put
                        && ops[put as usize].key == get.key
                        && !ops[put as usize].confirmed()
                        && want.is_none_or(|w| put > w))
            }
            _ => false,
        };
        if !ok {
            return Err(format!(
                "read-back of key {} returned {:?}, expected the value of put {want:?}",
                get.key, get.read
            ));
        }
    }
    Ok(())
}

/// Per put session, the highest sequence number issued and the highest
/// confirmed (0 if none was).
#[must_use]
pub fn put_seqs(ops: &[Op]) -> BTreeMap<u64, (u64, u64)> {
    let mut seqs: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for op in ops.iter().filter(|o| o.kind == Kind::Put) {
        let (issued, acked) = seqs.entry(op.session).or_insert((0, 0));
        *issued = (*issued).max(op.seq);
        if op.confirmed() {
            *acked = (*acked).max(op.seq);
        }
    }
    seqs
}

/// A session table's entry for a put session is possible: at least the
/// highest confirmed sequence number (a confirmed put was applied) and at
/// most the highest issued one. `recorded` is `None` when the table has no
/// entry.
///
/// # Errors
/// Describes an entry outside that range.
pub fn check_session(
    session: u64,
    (issued, acked): (u64, u64),
    recorded: Option<u64>,
) -> Result<(), String> {
    let last = recorded.unwrap_or(0);
    if (acked..=issued).contains(&last) {
        Ok(())
    } else {
        Err(format!(
            "session {session}: survivors' session table records last seq {recorded:?}, outside confirmed {acked} ..= issued {issued}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: Kind, key: u32, sent: u64, done: u64, read: Option<Answer>) -> Op {
        Op {
            kind,
            key,
            session: 1,
            seq: 0,
            due: sent,
            sent,
            done,
            resends: 0,
            read,
        }
    }

    #[test]
    fn fresh_reads_pass() {
        let ops = vec![
            op(Kind::Put, 7, 0, 10, None),
            op(Kind::Put, 7, 5, 20, None),
            // Sent after put 0 was acknowledged, while put 1 was in flight:
            // either value is allowed.
            op(Kind::Get, 7, 15, 30, Some(Answer::Value(0))),
            op(Kind::Get, 7, 15, 30, Some(Answer::Value(1))),
            // Sent before any acknowledgement: absence is allowed.
            op(Kind::Get, 7, 1, 3, Some(Answer::Absent)),
        ];
        assert_eq!(check_reads(&ops), Ok(()));
        assert_eq!(check_accounting(&ops), Ok(()));
    }

    #[test]
    fn a_hand_built_stale_read_is_rejected() {
        let ops = vec![
            op(Kind::Put, 7, 0, 10, None),
            op(Kind::Put, 7, 11, 20, None),
            // Put 1 was acknowledged at 20; a get sent at 25 must not see
            // put 0's older value.
            op(Kind::Get, 7, 25, 30, Some(Answer::Value(0))),
        ];
        let err = check_reads(&ops).unwrap_err();
        assert!(err.contains("stale read"), "{err}");
    }

    #[test]
    fn reads_of_missing_or_foreign_values_are_rejected() {
        let absent = vec![
            op(Kind::Put, 7, 0, 10, None),
            op(Kind::Get, 7, 11, 12, Some(Answer::Absent)),
        ];
        assert!(check_reads(&absent).is_err());
        let foreign = vec![
            op(Kind::Put, 8, 0, 10, None),
            op(Kind::Get, 7, 11, 12, Some(Answer::Value(0))),
        ];
        assert!(check_reads(&foreign).is_err());
        let garbage = vec![op(Kind::Get, 7, 11, 12, Some(Answer::Garbage))];
        assert!(check_reads(&garbage).is_err());
    }

    #[test]
    fn readback_wants_the_newest_confirmed_put() {
        let mut ops = vec![
            op(Kind::Put, 1, 0, 10, None),
            op(Kind::Put, 1, 1, 11, None),
            op(Kind::Put, 2, 2, NEVER, None), // never confirmed
            op(Kind::Get, 1, 20, 21, Some(Answer::Value(1))),
            op(Kind::Get, 2, 20, 21, Some(Answer::Absent)),
            op(Kind::Get, 3, 20, 21, Some(Answer::Absent)),
        ];
        assert_eq!(check_readback(&ops, 3..6), Ok(()));
        // An unconfirmed put may have applied after all.
        ops[4].read = Some(Answer::Value(2));
        assert_eq!(check_readback(&ops, 3..6), Ok(()));
        // The older value of key 1 is a lost write.
        ops[3].read = Some(Answer::Value(0));
        assert!(check_readback(&ops, 3..6).is_err());
    }

    #[test]
    fn session_entries_must_lie_between_confirmed_and_issued() {
        let put = |seq, done| Op {
            seq,
            ..op(Kind::Put, 1, 10, done, None)
        };
        // Seqs 1 and 2 confirmed, 3 never was.
        let ops = [put(1, 20), put(2, 30), put(3, NEVER)];
        let seqs = put_seqs(&ops);
        assert_eq!(seqs.get(&1), Some(&(3, 2)));
        // Seq 3 may or may not have been applied.
        assert!(check_session(1, seqs[&1], Some(2)).is_ok());
        assert!(check_session(1, seqs[&1], Some(3)).is_ok());
        // A confirmed put that the table forgot, or a seq never issued.
        assert!(check_session(1, seqs[&1], Some(1)).is_err());
        assert!(check_session(1, seqs[&1], None).is_err());
        assert!(check_session(1, seqs[&1], Some(4)).is_err());
        // No put confirmed: an empty table is possible.
        assert!(check_session(1, (3, 0), None).is_ok());
    }

    #[test]
    fn impossible_timelines_are_rejected() {
        let ops = vec![op(Kind::Get, 1, 10, 5, Some(Answer::Absent))];
        assert!(check_accounting(&ops).is_err());
        let ops = vec![op(Kind::Get, 1, 10, 12, None)];
        assert!(check_accounting(&ops).is_err());
    }
}
