//! Result bookkeeping: the operation ledger, metrics and the result line.

/// Operations attempted and failed. An operation fails when it returns
/// an error or when its output differs from the oracle by a single bit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Record one operation; returns `ok` for chaining.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    pub fn merge(&mut self, o: Ledger) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    /// A run is correct when it attempted something and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ledger: Ledger,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            value.is_finite(),
            "metric {name} is not a finite number: {value}"
        );
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Value of a reported metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The single JSON object the benchmark prints last.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ledger.correct(),
            self.ledger.attempted,
            self.ledger.failed,
            metrics.join(", ")
        )
    }

    /// Simulated time must repeat exactly from pass to pass; a pass that
    /// disagrees with the first counts as a failed operation.
    pub fn same_sim(&mut self, first: &mut Option<f64>, sim: f64) {
        match first {
            None => *first = Some(sim),
            Some(s) if s.to_bits() == sim.to_bits() => {}
            Some(s) => {
                self.ledger.record(false);
                self.note(format!(
                    "simulated time changed between passes: {s} vs {sim}"
                ));
            }
        }
    }

    /// Process exit code: a run with any failed operation fails.
    pub fn exit_code(&self) -> i32 {
        if self.ledger.correct() {
            0
        } else {
            1
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("peak RSS needs /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Seed of the `stream`-th input of a run (splitmix64 of both), so each
/// catalog of a workload gets its own reproducible stream.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut rng = SplitMix(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
    rng.next_u64()
}

/// Small deterministic generator for request mixes.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_failed_operation_fails_the_run() {
        let mut out = Outcome::default();
        out.ledger.record(true);
        out.metric("x_s", 1.25, "s");
        assert_eq!(out.exit_code(), 0);
        assert_eq!(
            out.result_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        out.ledger.record(false);
        assert_eq!(out.exit_code(), 1);
        assert!(out
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(
            !Ledger::default().correct(),
            "a run that attempted nothing is not correct"
        );
    }

    #[test]
    fn seeds_derive_reproducibly_and_distinctly() {
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
        assert!(peak_rss_mb() > 0.0);
    }
}
