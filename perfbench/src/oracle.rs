//! The benchmark's own oracle: a first-match scan over its own record of
//! the live rules, and the expected decision of every trace packet after
//! every scripted update burst.
//!
//! The record is updated incrementally per burst: a delete rescans only
//! the packets the deleted rule decided, an insert claims the packets it
//! covers at higher priority than their current decision.  The initial
//! decisions of every trace packet come from the library's
//! `RuleSet::classify_linear`; the oracle's own scan re-derives a seeded
//! sample of them, so the two linear searches cross-check each other.

use pclass_algos::RuleUpdate;
use pclass_types::{MatchResult, PacketHeader, Rule, RuleSet};

/// Encoding of "no rule matched" in the expected-decision vectors.
pub const NO_MATCH: u32 = u32::MAX;

pub fn encode(result: MatchResult) -> u32 {
    match result {
        MatchResult::Matched(id) => id,
        MatchResult::NoMatch => NO_MATCH,
    }
}

#[derive(Clone, Copy)]
struct Entry {
    id: u32,
    lo: [u32; 5],
    hi: [u32; 5],
}

impl Entry {
    fn new(rule: &Rule) -> Entry {
        Entry {
            id: rule.id,
            lo: rule.ranges.map(|r| r.lo),
            hi: rule.ranges.map(|r| r.hi),
        }
    }

    fn covers(&self, f: &[u32; 5]) -> bool {
        (0..5).all(|d| self.lo[d] <= f[d] && f[d] <= self.hi[d])
    }
}

/// The oracle's record of the live rules, in ascending id (= priority)
/// order.
#[derive(Clone)]
pub struct RuleBook {
    rules: Vec<Entry>,
}

impl RuleBook {
    pub fn new(rules: &[Rule]) -> RuleBook {
        let mut rules: Vec<Entry> = rules.iter().map(Entry::new).collect();
        rules.sort_by_key(|e| e.id);
        RuleBook { rules }
    }

    /// First (lowest-id) live rule covering the header.
    pub fn first_match(&self, f: &[u32; 5]) -> u32 {
        self.scan_from(0, f)
    }

    fn scan_from(&self, start: usize, f: &[u32; 5]) -> u32 {
        self.rules[start..]
            .iter()
            .find(|e| e.covers(f))
            .map_or(NO_MATCH, |e| e.id)
    }

    /// Applies one update; an insert of a live id or a delete of an
    /// absent id is refused, as the program must refuse it.
    fn apply(&mut self, update: &RuleUpdate) -> Result<(), String> {
        match update {
            RuleUpdate::Insert(rule) => match self.rules.binary_search_by_key(&rule.id, |e| e.id) {
                Ok(_) => Err(format!("insert of live rule {}", rule.id)),
                Err(at) => {
                    self.rules.insert(at, Entry::new(rule));
                    Ok(())
                }
            },
            RuleUpdate::Delete(id) => match self.rules.binary_search_by_key(id, |e| e.id) {
                Ok(at) => {
                    self.rules.remove(at);
                    Ok(())
                }
                Err(_) => Err(format!("delete of absent rule {id}")),
            },
        }
    }

    /// The highest live id (the script appends fresh rules past it).
    pub fn max_id(&self) -> u32 {
        self.rules.last().map_or(0, |e| e.id)
    }

    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.rules.iter().map(|e| e.id)
    }
}

/// Expected decisions of a fixed packet list at every step of an update
/// script: the initial decisions plus, per burst, the packets whose
/// decision it changed.
pub struct Expected {
    base: Vec<u32>,
    steps: Vec<Vec<(u32, u32)>>,
    /// The oracle's rule record and decisions after the last step.
    book: RuleBook,
    cur: Vec<u32>,
    fields: Vec<[u32; 5]>,
}

impl Expected {
    /// Decides every packet with `RuleSet::classify_linear` (two threads)
    /// and re-decides `sample` of them with the oracle's own scan.
    pub fn new(
        rs: &RuleSet,
        headers: &[PacketHeader],
        sample: &[usize],
    ) -> Result<Expected, String> {
        let mut base = vec![NO_MATCH; headers.len()];
        let half = headers.len().div_ceil(2).max(1);
        std::thread::scope(|s| {
            for (out, pkts) in base.chunks_mut(half).zip(headers.chunks(half)) {
                s.spawn(move || {
                    for (o, h) in out.iter_mut().zip(pkts) {
                        *o = encode(rs.classify_linear(h));
                    }
                });
            }
        });
        let book = RuleBook::new(rs.rules());
        let fields: Vec<[u32; 5]> = headers.iter().map(|h| h.fields).collect();
        for &p in sample {
            let own = book.first_match(&fields[p]);
            if own != base[p] {
                return Err(format!(
                    "linear searches disagree on packet {p}: classify_linear {} vs oracle {}",
                    base[p], own
                ));
            }
        }
        Ok(Expected {
            cur: base.clone(),
            base,
            steps: Vec::new(),
            book,
            fields,
        })
    }

    /// Appends one burst as the next step; returns an error when the
    /// burst is invalid against the oracle's record (a script bug).
    pub fn push_burst(&mut self, burst: &[RuleUpdate]) -> Result<(), String> {
        let mut diff = Vec::new();
        for update in burst {
            self.book.apply(update)?;
            match update {
                RuleUpdate::Delete(id) => {
                    let from = self.book.rules.partition_point(|e| e.id < *id);
                    for (p, cur) in self.cur.iter_mut().enumerate() {
                        if *cur == *id {
                            *cur = self.book.scan_from(from, &self.fields[p]);
                            diff.push((p as u32, *cur));
                        }
                    }
                }
                RuleUpdate::Insert(rule) => {
                    let entry = Entry::new(rule);
                    for (p, cur) in self.cur.iter_mut().enumerate() {
                        if *cur > rule.id && entry.covers(&self.fields[p]) {
                            *cur = rule.id;
                            diff.push((p as u32, *cur));
                        }
                    }
                }
            }
        }
        self.steps.push(diff);
        Ok(())
    }

    /// Whether any packet of the list falls inside `rule`.
    pub fn any_covered(&self, rule: &Rule) -> bool {
        let entry = Entry::new(rule);
        self.fields.iter().any(|f| entry.covers(f))
    }

    pub fn book(&self) -> &RuleBook {
        &self.book
    }

    pub fn base(&self) -> &[u32] {
        &self.base
    }
}

/// Expected decisions at a moving step of an [`Expected`] script.  Steps
/// only move forward, as published generations do.
pub struct Cursor<'a> {
    exp: &'a Expected,
    step: usize,
    cur: Vec<u32>,
}

impl<'a> Cursor<'a> {
    pub fn new(exp: &'a Expected) -> Cursor<'a> {
        Cursor {
            exp,
            step: 0,
            cur: exp.base.clone(),
        }
    }

    pub fn advance(&mut self, step: usize) {
        assert!(step >= self.step, "steps only move forward");
        assert!(
            step <= self.exp.steps.len(),
            "step {step} beyond the script"
        );
        while self.step < step {
            for &(p, v) in &self.exp.steps[self.step] {
                self.cur[p as usize] = v;
            }
            self.step += 1;
        }
    }

    pub fn get(&self, p: usize) -> u32 {
        self.cur[p]
    }
}

/// Decisions checked and found wrong.
#[derive(Default)]
pub struct Tally {
    pub checked: u64,
    pub wrong: u64,
    pub first_wrong: Option<String>,
}

impl Tally {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.wrong += 1;
            if self.first_wrong.is_none() {
                self.first_wrong = Some(what());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.checked += other.checked;
        self.wrong += other.wrong;
        if self.first_wrong.is_none() {
            self.first_wrong = other.first_wrong;
        }
    }
}

/// Checks decisions of `pkts` (indices into the cursor's packet list)
/// served while the script stood anywhere in `lo..=hi`: each decision
/// must equal the expected one at some step of that window.
pub fn check_window(
    cursor: &mut Cursor,
    lo: usize,
    hi: usize,
    pkts: &[u32],
    got: &[MatchResult],
    tally: &mut Tally,
) {
    cursor.advance(lo);
    if lo == hi {
        for (&p, &g) in pkts.iter().zip(got) {
            let want = cursor.get(p as usize);
            tally.record(encode(g) == want, || {
                format!("packet {p}: got {g:?}, expected {want} at step {lo}")
            });
        }
        return;
    }
    let mut pending: Vec<usize> = (0..pkts.len())
        .filter(|&i| encode(got[i]) != cursor.get(pkts[i] as usize))
        .collect();
    for step in lo + 1..=hi {
        if pending.is_empty() {
            break;
        }
        cursor.advance(step);
        pending.retain(|&i| encode(got[i]) != cursor.get(pkts[i] as usize));
    }
    tally.checked += pkts.len() as u64;
    tally.wrong += pending.len() as u64;
    if let (Some(&i), None) = (pending.first(), &tally.first_wrong) {
        tally.first_wrong = Some(format!(
            "packet {}: got {:?}, expected none of steps {lo}..={hi}",
            pkts[i], got[i]
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclass_types::{DimensionSpec, RuleBuilder};

    fn rule(id: u32, port: u16) -> Rule {
        RuleBuilder::new(id).dst_port(port).build()
    }

    #[test]
    fn bursts_move_expected_decisions_and_cursor_follows() {
        let rs = RuleSet::new(
            "t",
            DimensionSpec::FIVE_TUPLE,
            vec![rule(0, 80), rule(1, 443)],
        )
        .expect("valid ruleset");
        let pkts = [
            PacketHeader::five_tuple(1, 2, 3, 80, 6),
            PacketHeader::five_tuple(1, 2, 3, 443, 6),
            PacketHeader::five_tuple(1, 2, 3, 22, 6),
        ];
        let mut exp = Expected::new(&rs, &pkts, &[0, 1, 2]).expect("oracles agree");
        assert_eq!(exp.base(), &[0, 1, NO_MATCH]);
        exp.push_burst(&[RuleUpdate::Delete(0), RuleUpdate::Insert(rule(5, 22))])
            .expect("valid burst");
        assert!(
            exp.push_burst(&[RuleUpdate::Delete(0)]).is_err(),
            "absent id"
        );
        let mut cursor = Cursor::new(&exp);
        cursor.advance(1);
        assert_eq!(
            (cursor.get(0), cursor.get(1), cursor.get(2)),
            (NO_MATCH, 1, 5)
        );

        // A decision from either end of a two-step window passes; a
        // corrupted one is counted.
        let mut cursor = Cursor::new(&exp);
        let mut tally = Tally::default();
        let got = [
            MatchResult::Matched(0),
            MatchResult::Matched(1),
            MatchResult::Matched(5),
        ];
        check_window(&mut cursor, 0, 1, &[0, 1, 2], &got, &mut tally);
        assert_eq!((tally.checked, tally.wrong), (3, 0));
        check_window(
            &mut cursor,
            1,
            1,
            &[1],
            &[MatchResult::Matched(0)],
            &mut tally,
        );
        assert_eq!((tally.checked, tally.wrong), (4, 1));
    }
}
