//! The simulator outputs every run is checked against, and the tally of
//! cells that matched them.
//!
//! `expected.json` holds, per program, the detailed cycles of both
//! configurations (the rows of the repository's committed paper-baseline
//! snapshot), the retired instruction count and a digest of the final
//! register file (which every tier must reproduce), and the exact
//! sampled-tier estimates. Regenerate it with `--write-expected <path>`
//! only when the simulator's timing model is meant to change.

use crate::Prog;
use fac_core::snap::{fnv1a, FNV_OFFSET};
use fac_sim::obs::{json, Json};
use fac_sim::tier::{run_sampled, SampleSpec, SampledReport};
use fac_sim::{ArchState, MachineConfig, SimError, SimReport};
use std::collections::BTreeMap;
use std::path::Path;

/// The two machine configurations of every sweep, by their catalog
/// names.
pub const CONFIGS: [&str; 2] = ["baseline", "fac"];

/// The sampling regime of the sampled sweep (`tiered_run`'s default).
pub const SAMPLE: SampleSpec = SampleSpec {
    every: 100_000,
    window: 10_000,
};

/// The machine configuration `CONFIGS[c]` names.
pub fn config(c: usize) -> MachineConfig {
    fac_bench::serve::config_by_name(CONFIGS[c]).expect("catalog names resolve")
}

/// Expected outcome of one program.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Retired instructions (identical on every tier and configuration).
    pub insts: u64,
    /// [`regs_digest`] of the final architectural state.
    pub regs_digest: u64,
    /// Detailed cycles per configuration.
    pub cycles: [u64; 2],
    /// Sampled-tier estimate per configuration.
    pub sampled: [Sampled; 2],
}

/// The deterministic fields of a sampled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampled {
    /// Extrapolated whole-program cycles.
    pub est_cycles: u64,
    /// Cycles measured inside windows.
    pub measured_cycles: u64,
    /// Instructions measured inside windows.
    pub measured_insts: u64,
    /// Measurement windows.
    pub windows: u64,
}

impl Sampled {
    fn of(r: &SampledReport) -> Sampled {
        Sampled {
            est_cycles: r.est_cycles,
            measured_cycles: r.measured_cycles,
            measured_insts: r.measured_insts,
            windows: r.windows.len() as u64,
        }
    }
}

/// Expected outcomes by program name.
#[derive(Debug, Clone)]
pub struct Expected(pub BTreeMap<String, Row>);

/// FNV-1a over the final integer and FP register files, HI, LO and the
/// PC: the architectural outcome the fast and detailed tiers must agree
/// on.
pub fn regs_digest(state: &ArchState) -> u64 {
    let mut h = FNV_OFFSET;
    for r in state.regs {
        h = fnv1a(h, &r.to_le_bytes());
    }
    for f in state.fregs {
        h = fnv1a(h, &f.to_le_bytes());
    }
    for w in [state.hi, state.lo, state.pc] {
        h = fnv1a(h, &w.to_le_bytes());
    }
    h
}

fn field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer '{key}'"))
}

fn hex_field(doc: &Json, key: &str) -> Result<u64, String> {
    let s = doc
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing '{key}'"))?;
    u64::from_str_radix(s.trim_start_matches("0x"), 16).map_err(|e| format!("'{key}': {e}"))
}

impl Expected {
    /// Reads an expected-outcomes file.
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let rows = doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("missing 'rows' array")?;
        let mut out = BTreeMap::new();
        for row in rows {
            let name = row
                .get("program")
                .and_then(Json::as_str)
                .ok_or("row without 'program'")?;
            let cycles = row.get("cycles").ok_or("row without 'cycles'")?;
            let sampled = row.get("sampled").ok_or("row without 'sampled'")?;
            let mut s = [Sampled {
                est_cycles: 0,
                measured_cycles: 0,
                measured_insts: 0,
                windows: 0,
            }; 2];
            let mut c = [0; 2];
            for (i, cfg) in CONFIGS.iter().enumerate() {
                c[i] = field(cycles, cfg)?;
                let d = sampled
                    .get(cfg)
                    .ok_or_else(|| format!("{name}: no sampled '{cfg}'"))?;
                s[i] = Sampled {
                    est_cycles: field(d, "est_cycles")?,
                    measured_cycles: field(d, "measured_cycles")?,
                    measured_insts: field(d, "measured_insts")?,
                    windows: field(d, "windows")?,
                };
            }
            let parsed = Row {
                insts: field(row, "insts")?,
                regs_digest: hex_field(row, "regs_digest")?,
                cycles: c,
                sampled: s,
            };
            out.insert(name.to_string(), parsed);
        }
        Ok(Expected(out))
    }

    fn row(&self, program: &str) -> Result<&Row, Vec<String>> {
        self.0
            .get(program)
            .ok_or_else(|| vec![format!("no expected outcome for '{program}'")])
    }

    /// Mismatches of a detailed run of `program` under `CONFIGS[c]`.
    pub fn detail(&self, program: &str, c: usize, r: &SimReport) -> Vec<String> {
        let row = match self.row(program) {
            Ok(row) => row,
            Err(e) => return e,
        };
        let mut bad = Vec::new();
        diff(&mut bad, "cycles", row.cycles[c], r.stats.cycles);
        diff(&mut bad, "insts", row.insts, r.stats.insts);
        diff(
            &mut bad,
            "regs digest",
            row.regs_digest,
            regs_digest(&r.final_state),
        );
        bad
    }

    /// Mismatches of a fast-tier run: it must retire the detailed run's
    /// instructions and end in its register file.
    pub fn fast(&self, program: &str, insts: u64, state: &ArchState) -> Vec<String> {
        let row = match self.row(program) {
            Ok(row) => row,
            Err(e) => return e,
        };
        let mut bad = Vec::new();
        diff(&mut bad, "insts", row.insts, insts);
        diff(&mut bad, "regs digest", row.regs_digest, regs_digest(state));
        bad
    }

    /// Mismatches of a sampled run under `CONFIGS[c]`.
    pub fn sampled(&self, program: &str, c: usize, r: &SampledReport) -> Vec<String> {
        let mut bad = self.fast(program, r.insts, &r.final_state);
        if let Ok(row) = self.row(program) {
            let (want, got) = (row.sampled[c], Sampled::of(r));
            diff(&mut bad, "est cycles", want.est_cycles, got.est_cycles);
            diff(
                &mut bad,
                "measured cycles",
                want.measured_cycles,
                got.measured_cycles,
            );
            diff(
                &mut bad,
                "measured insts",
                want.measured_insts,
                got.measured_insts,
            );
            diff(&mut bad, "windows", want.windows, got.windows);
        }
        bad
    }

    /// Mismatches of a served cell's result document.
    pub fn served(&self, program: &str, c: usize, doc: &Json) -> Vec<String> {
        let row = match self.row(program) {
            Ok(row) => row,
            Err(e) => return e,
        };
        let mut bad = Vec::new();
        match (
            doc.get("cycles").and_then(Json::as_u64),
            doc.get("insts").and_then(Json::as_u64),
        ) {
            (Some(cycles), Some(insts)) => {
                diff(&mut bad, "cycles", row.cycles[c], cycles);
                diff(&mut bad, "insts", row.insts, insts);
            }
            _ => bad.push(format!("result lacks cycles/insts: {doc}")),
        }
        bad
    }

    /// The detailed CPI of `program` under `CONFIGS[c]`.
    pub fn detail_cpi(&self, program: &str, c: usize) -> Option<f64> {
        self.0
            .get(program)
            .map(|r| r.cycles[c] as f64 / r.insts as f64)
    }
}

fn diff(bad: &mut Vec<String>, what: &str, want: u64, got: u64) {
    if want != got {
        bad.push(format!("{what} {got} != expected {want}"));
    }
}

/// Cells attempted and failed, with the first few failure reports.
#[derive(Debug, Default)]
pub struct Tally {
    /// Cells, RPCs and runs attempted.
    pub attempted: u64,
    /// Of those, how many failed or mismatched.
    pub failed: u64,
    /// Human-readable reports of the first failures.
    pub notes: Vec<String>,
    /// Each checked cell's label and values, in the order first checked.
    pub cells: Vec<(String, String)>,
}

impl Tally {
    /// Records one attempted item and its mismatches (none = success).
    pub fn record(&mut self, label: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!("{label}: {}", problems.join("; ")));
            }
        }
    }

    /// Keeps a checked cell's values for the report, the first time the
    /// cell is checked (every later check of it must match the same
    /// expected values).
    pub fn show(&mut self, label: &str, values: std::fmt::Arguments<'_>) {
        if !self.cells.iter().any(|(l, _)| l == label) {
            self.cells.push((label.to_string(), values.to_string()));
        }
    }

    /// Records one attempted item that errored outright.
    pub fn error(&mut self, label: &str, e: &dyn std::fmt::Display) {
        self.record(label, vec![e.to_string()]);
    }
}

/// Computes the expected outcomes from scratch (detailed and sampled
/// runs of every program) and writes them to `path`.
pub fn write(programs: &[Prog], path: &Path) -> Result<(), SimError> {
    let mut rows = Vec::new();
    for p in programs {
        let mut cycles = Json::obj();
        let mut sampled = Json::obj();
        let mut last = None;
        for (c, name) in CONFIGS.iter().enumerate() {
            let r = fac_bench::run(&p.program, config(c))?;
            cycles.set(name, Json::U64(r.stats.cycles));
            let s = Sampled::of(&run_sampled(
                &config(c),
                &p.program,
                SAMPLE,
                fac_bench::MAX_INSTS,
            )?);
            let mut d = Json::obj();
            d.set("est_cycles", Json::U64(s.est_cycles));
            d.set("measured_cycles", Json::U64(s.measured_cycles));
            d.set("measured_insts", Json::U64(s.measured_insts));
            d.set("windows", Json::U64(s.windows));
            sampled.set(name, d);
            last = Some(r);
        }
        let r = last.expect("two configurations ran");
        let mut row = Json::obj();
        row.set("program", Json::Str(p.name.to_string()));
        row.set("insts", Json::U64(r.stats.insts));
        row.set(
            "regs_digest",
            Json::Str(format!("{:#018x}", regs_digest(&r.final_state))),
        );
        row.set("cycles", cycles);
        row.set("sampled", sampled);
        rows.push(row);
    }
    let mut doc = Json::obj();
    doc.set("scale", Json::Str("paper".to_string()));
    doc.set("sw", Json::Bool(true));
    doc.set(
        "sample",
        Json::Str(format!("every={} window={}", SAMPLE.every, SAMPLE.window)),
    );
    doc.set("rows", Json::Arr(rows));
    std::fs::write(path, doc.to_pretty(2) + "\n")
        .map_err(|e| SimError::io(&path.display().to_string(), e))
}
