//! The seeded JSONL op stream that drives the serve workload.
//!
//! The stream is the only input the serve front-end receives. Session `a`
//! only descends (`step`), answers reads, and rolls back to its base
//! snapshot every [`PERIOD`] rounds, so its trajectory — and the quality
//! figure read off it — does not depend on the seed. Session `b` takes the
//! seeded commits and rolls back on the same period, so its sizes wander
//! and return. The seed picks which gates the reads and writes touch, the
//! widths, and the order of reads and writes within a round.

use std::fmt::Write as _;

/// Speculative resizes (reads, undone) per round.
pub const WHAT_IFS: usize = 24;
/// Committed resizes (writes, logged to the WAL) per round.
pub const COMMITS: usize = 4;
/// Rounds between rollbacks of both sessions to their base snapshot.
pub const PERIOD: usize = 4;

/// What a request asks for, for per-kind latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// `load`, `open`, and the base snapshots taken at set-up.
    Setup,
    /// `what_if`.
    WhatIf,
    /// `commit`.
    Commit,
    /// `step`.
    Step,
    /// Two-session `batch`.
    Batch,
    /// `snapshot`.
    Snapshot,
    /// `rollback`.
    Rollback,
}

/// One request line, its kind, and the period it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The JSONL request.
    pub line: String,
    /// Its kind.
    pub kind: Kind,
    /// Which run of [`PERIOD`] rounds (ended by the rollbacks) it is in;
    /// 0 for set-up requests.
    pub period: usize,
}

/// A generated stream: set-up requests, then the timed rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// Loads the design, opens both sessions, takes the base snapshots.
    pub setup: Vec<Request>,
    /// The timed requests, round after round.
    pub rounds: Vec<Request>,
}

impl Stream {
    /// Number of timed requests of `kind`.
    pub fn count(&self, kind: Kind) -> usize {
        self.rounds.iter().filter(|r| r.kind == kind).count()
    }
}

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same stream on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator from `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

const WIDTHS: [&str; 3] = ["0.5", "1", "2"];

/// Generates `rounds` rounds over `design`, whose gates are named by the
/// nets they drive (`gates`).
///
/// # Panics
///
/// Panics if `gates` is empty.
pub fn generate(seed: u64, design: &str, gates: &[String], rounds: usize) -> Stream {
    assert!(!gates.is_empty(), "the design has no gates");
    let mut rng = Rng::new(seed);
    let mut id = 0u64;
    let mut next = |body: String, kind: Kind, period: usize| {
        id += 1;
        Request {
            line: format!("{{\"id\":{id},{body}}}"),
            kind,
            period,
        }
    };
    let mut setup = vec![next(
        format!("\"op\":\"load\",\"design\":\"{design}\""),
        Kind::Setup,
        0,
    )];
    for s in ["a", "b"] {
        setup.push(next(
            format!("\"op\":\"open\",\"session\":\"{s}\",\"design\":\"{design}\",\"iters\":1000"),
            Kind::Setup,
            0,
        ));
        setup.push(next(
            format!("\"op\":\"snapshot\",\"session\":\"{s}\",\"name\":\"base\""),
            Kind::Setup,
            0,
        ));
    }
    let mut out = Vec::new();
    for round in 0..rounds {
        let period = round / PERIOD;
        // Reads and writes in seeded order: which of the round's
        // WHAT_IFS + COMMITS slots are writes.
        let mut slots: Vec<bool> = (0..WHAT_IFS + COMMITS).map(|i| i < COMMITS).collect();
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng.below(i + 1));
        }
        for write in slots {
            let gate = &gates[rng.below(gates.len())];
            let w = WIDTHS[rng.below(WIDTHS.len())];
            out.push(if write {
                next(
                    format!("\"op\":\"commit\",\"session\":\"b\",\"gate\":\"{gate}\",\"delta_w\":{w}"),
                    Kind::Commit, period,
                )
            } else {
                let s = if rng.below(2) == 0 { "a" } else { "b" };
                next(
                    format!("\"op\":\"what_if\",\"session\":\"{s}\",\"gate\":\"{gate}\",\"delta_w\":{w}"),
                    Kind::WhatIf, period,
                )
            });
        }
        out.push(next(
            "\"op\":\"step\",\"session\":\"a\"".to_string(),
            Kind::Step,
            period,
        ));
        let (ga, gb) = (
            &gates[rng.below(gates.len())],
            &gates[rng.below(gates.len())],
        );
        let mut batch = String::from("\"op\":\"batch\",\"requests\":[");
        let _ = write!(
            batch,
            "{{\"op\":\"what_if\",\"session\":\"a\",\"gate\":\"{ga}\",\"delta_w\":1}},\
             {{\"op\":\"commit\",\"session\":\"b\",\"gate\":\"{gb}\",\"delta_w\":1}}]"
        );
        out.push(next(batch, Kind::Batch, period));
        if round % PERIOD == 1 {
            out.push(next(
                "\"op\":\"snapshot\",\"session\":\"b\",\"name\":\"mid\"".to_string(),
                Kind::Snapshot,
                period,
            ));
        }
        if round % PERIOD == PERIOD - 1 {
            for s in ["a", "b"] {
                out.push(next(
                    format!("\"op\":\"rollback\",\"session\":\"{s}\",\"name\":\"base\""),
                    Kind::Rollback,
                    period,
                ));
            }
        }
    }
    Stream { setup, rounds: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::min_samples_for_tail;
    use statsize::wire;
    use statsize_bench::serve::Server;

    fn gates() -> Vec<String> {
        crate::serve::gate_names(&statsize_netlist::bench::c1355())
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let g = gates();
        assert_eq!(generate(7, "c1355", &g, 8), generate(7, "c1355", &g, 8));
        assert_ne!(generate(7, "c1355", &g, 8), generate(8, "c1355", &g, 8));
    }

    #[test]
    fn every_request_parses_and_is_answered_ok() {
        let g = gates();
        let stream = generate(3, "c1355", &g, PERIOD + 2);
        let mut server = Server::new().with_total_threads(2);
        for r in stream.setup.iter().chain(&stream.rounds) {
            let obj = wire::parse(&r.line).expect("request is JSON");
            assert!(obj.as_object().is_some());
            let response = server
                .handle_line(&r.line)
                .expect("one response per request");
            assert!(
                crate::serve::response_ok(&response),
                "{} -> {response}",
                r.line
            );
        }
    }

    #[test]
    fn one_replay_gives_every_tail_ten_samples_beyond_it() {
        let stream = generate(1, "c1355", &gates(), crate::serve::ROUNDS);
        assert!(stream.count(Kind::WhatIf) >= min_samples_for_tail(0.99));
        assert!(stream.count(Kind::Commit) >= min_samples_for_tail(0.95));
    }
}
