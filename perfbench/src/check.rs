//! Output checks: the simulator's timing-free digest and the fleet's
//! query accounting.

use qa_cluster::driver::QueryOutcome;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The timing-free outcome of one simulator run. Every field is a pure
/// function of the workload's inputs, so it repeats exactly per seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Arrivals in the trace.
    pub queries: u64,
    /// Completed queries.
    pub completed: u64,
    /// Queries never served by the end of the run.
    pub unserved: u64,
    /// QA-NT resubmissions.
    pub retries: u64,
    /// Allocation-protocol messages.
    pub messages: u64,
    /// Cross-shard coordination messages (0 on the flat engine).
    pub cross_messages: u64,
    /// Demand units the broker parent escalated (0 without a broker).
    pub escalated_units: u64,
    /// Price-adjustment rounds of the broker parent (0 without a broker).
    pub parent_rounds: u64,
    /// Mean simulated response time of completed queries (ms).
    pub mean_response_ms: f64,
    /// Longest simulated response of a completed query (ms).
    pub max_response_ms: f64,
    /// Mean simulated arrival-to-assignment latency (ms).
    pub mean_assign_ms: f64,
}

impl SimSummary {
    /// FNV-1a 64 over every field (floats by their bits), as hex.
    pub fn digest(&self) -> String {
        let words = [
            self.queries,
            self.completed,
            self.unserved,
            self.retries,
            self.messages,
            self.cross_messages,
            self.escalated_units,
            self.parent_rounds,
            self.mean_response_ms.to_bits(),
            self.max_response_ms.to_bits(),
            self.mean_assign_ms.to_bits(),
        ];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Conservation and range checks that hold for any seed.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.completed + self.unserved != self.queries {
            out.push(format!(
                "completed {} + unserved {} != arrivals {}",
                self.completed, self.unserved, self.queries
            ));
        }
        if self.completed == 0 {
            out.push("no query completed".to_string());
        }
        if !(self.mean_response_ms.is_finite() && self.mean_response_ms > 0.0) {
            out.push(format!("mean response {} ms", self.mean_response_ms));
        }
        out
    }
}

/// Expected simulator digests per `(workload, seed)`: the committed
/// table, plus a ledger of digests first seen by earlier runs in the same
/// checkout. A digest is compared with the committed one when there is
/// one, else with the ledger's, else recorded in the ledger.
pub struct DigestBook {
    committed: BTreeMap<(String, u64), String>,
    ledger: BTreeMap<(String, u64), String>,
    ledger_path: Option<PathBuf>,
}

fn parse_book(text: &str) -> BTreeMap<(String, u64), String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let workload = f.next()?.to_string();
            let seed = f.next()?.parse().ok()?;
            Some(((workload, seed), f.next()?.to_string()))
        })
        .collect()
}

impl DigestBook {
    /// A book with no expectations and no ledger (every digest passes).
    pub fn empty() -> DigestBook {
        DigestBook {
            committed: BTreeMap::new(),
            ledger: BTreeMap::new(),
            ledger_path: None,
        }
    }

    /// Loads the committed table (missing file = empty) and the ledger.
    pub fn load(committed: &Path, ledger: &Path) -> DigestBook {
        let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_default();
        DigestBook {
            committed: parse_book(&read(committed)),
            ledger: parse_book(&read(ledger)),
            ledger_path: Some(ledger.to_path_buf()),
        }
    }

    /// Checks `digest` against the expectation for `(workload, seed)`,
    /// recording it when there is none.
    ///
    /// # Errors
    /// A mismatch, or a ledger that cannot be written.
    pub fn check(&mut self, workload: &str, seed: u64, digest: &str) -> Result<(), String> {
        let key = (workload.to_string(), seed);
        if let Some(want) = self.committed.get(&key).or_else(|| self.ledger.get(&key)) {
            if want != digest {
                return Err(format!(
                    "{workload} seed {seed}: outcome digest {digest}, expected {want}"
                ));
            }
            return Ok(());
        }
        self.ledger.insert(key, digest.to_string());
        if let Some(path) = &self.ledger_path {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("digest ledger {}: {e}", path.display()))?;
            writeln!(f, "{workload} {seed} {digest}")
                .map_err(|e| format!("digest ledger {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// Checks that each of the `issued` queries is reported exactly once, as
/// completed (with an executing node) or failed. Returns the completed
/// count.
///
/// # Errors
/// The first accounting violation found.
pub fn check_fleet_outcomes(outcomes: &[QueryOutcome], issued: usize) -> Result<u64, String> {
    if outcomes.len() != issued {
        return Err(format!(
            "{} outcomes reported for {issued} issued queries",
            outcomes.len()
        ));
    }
    let mut seen = vec![false; issued];
    let mut completed = 0;
    for o in outcomes {
        match seen.get_mut(o.query) {
            None => return Err(format!("outcome for unknown query {}", o.query)),
            Some(true) => return Err(format!("query {} reported twice", o.query)),
            Some(s) => *s = true,
        }
        match (&o.error, o.node) {
            (None, Some(_)) => completed += 1,
            (None, None) => return Err(format!("query {} completed on no node", o.query)),
            (Some(_), _) => {}
        }
    }
    Ok(completed)
}

/// With no crashed node, the fleet's executed count must equal the
/// driver's completed count.
///
/// # Errors
/// The mismatch, when no node crashed.
pub fn check_executed(completed: u64, executed: u64, crashed: u64) -> Result<(), String> {
    if crashed == 0 && executed != completed {
        return Err(format!(
            "fleet executed {executed} queries, driver completed {completed}"
        ));
    }
    Ok(())
}
