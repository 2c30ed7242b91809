//! The layer probe: after a traced workload pass, measures every layer
//! the pass did not call, so a traced run reports every per-layer metric
//! on every workload. It runs the same sweeps' traced code, at full
//! program length, on the smallest programs of the suite.

use crate::expected::{config, CONFIGS};
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::{served, sweeps, Cx};
use fac_sim::obs::Recorder;
use fac_sim::{
    program_fingerprint, ArchState, Executed, InvariantChecker, IssueInfo, Machine, Pipeline,
    SimStats,
};
use std::hint::black_box;
use std::time::Instant;

/// The probe's programs: short runs (under 0.1 s detailed), two integer
/// and two floating-point.
pub const PROBE_PROGRAMS: [&str; 4] = ["espresso", "yacr2", "alvinn", "su2cor"];

/// Hits the probe's served sweep collects.
const PROBE_HITS: usize = 120;

/// Rounds of the instruction-encoding probe.
const ENCODE_ROUNDS: usize = 20;

/// Rounds of the fingerprint probe.
const FINGERPRINT_ROUNDS: usize = 5;

/// Indices of the probe programs present in this run (the first program
/// when a `--programs` filter leaves none of them).
pub fn probe_set(cx: &Cx) -> Vec<usize> {
    let set: Vec<usize> = (0..cx.programs.len())
        .filter(|&p| PROBE_PROGRAMS.contains(&cx.programs[p].name))
        .collect();
    if set.is_empty() {
        vec![0]
    } else {
        set
    }
}

/// Runs the probe: the layers no workload calls (instruction encoding,
/// the invariant checker, observation), program fingerprinting, and
/// every layer the traced pass left unmeasured.
pub fn run(cx: &mut Cx, t: &mut Tracer, rng: &mut Rng) {
    t.probe = true;
    let set = probe_set(cx);
    let both: Vec<(usize, usize)> = set.iter().flat_map(|&p| [(p, 0), (p, 1)]).collect();
    let fac: Vec<(usize, usize)> = set.iter().map(|&p| (p, 1)).collect();

    fingerprint(cx, t);
    encode(cx, t);
    checker(cx, t, &set);
    observer(cx, t, &set);
    if !t.has("sim.step") {
        sweeps::detail_traced(cx, t, &both);
    }
    if !t.has("tier.fast") {
        sweeps::fast_traced(cx, t, &fac);
    }
    if !t.has("ckpt.snapshot") {
        sweeps::sampled_traced(cx, t, &both);
    }
    if !t.has("serve.rpc_hit") {
        served::served(cx, rng, &set, PROBE_HITS, Some(t));
    }
}

/// `program_fingerprint` of every program, [`FINGERPRINT_ROUNDS`] times.
fn fingerprint(cx: &Cx, t: &mut Tracer) {
    for prog in &cx.programs {
        let id = t.cell(prog.name.to_string());
        for _ in 0..FINGERPRINT_ROUNDS {
            let began = Instant::now();
            black_box(program_fingerprint(black_box(&prog.program)));
            t.span("ckpt.fingerprint", id, began, 1);
        }
    }
}

/// `fac_isa::encode` over every instruction of every program.
fn encode(cx: &Cx, t: &mut Tracer) {
    for prog in &cx.programs {
        let id = t.cell(prog.name.to_string());
        let began = Instant::now();
        for _ in 0..ENCODE_ROUNDS {
            for insn in &prog.program.text {
                black_box(fac_isa::encode(black_box(insn)));
            }
        }
        t.span(
            "isa.encode",
            id,
            began,
            (ENCODE_ROUNDS * prog.program.text.len()) as u64,
        );
    }
}

/// `InvariantChecker::check_insn` over the FAC runs of `set`, fed the
/// timing `Pipeline::advance_traced` reports; the run must pass every
/// check and match its expected cycles.
fn checker(cx: &mut Cx, t: &mut Tracer, set: &[usize]) {
    let cfg = config(1);
    for &p in set {
        let label = format!("{}/{} checked", cx.programs[p].name, CONFIGS[1]);
        let id = t.cell(label.clone());
        let program = &cx.programs[p].program;
        let mut state = ArchState::new(program);
        let mut pipe = Pipeline::new(cfg);
        let mut stats = SimStats::default();
        let mut chk = InvariantChecker::new(&cfg);
        let mut chunk: Vec<(Executed, IssueInfo)> = Vec::with_capacity(sweeps::CHUNK);
        let mut problems = Vec::new();
        while !state.halted && problems.is_empty() {
            chunk.clear();
            while chunk.len() < sweeps::CHUNK && !state.halted {
                match state.step(program) {
                    Ok(ex) => {
                        stats.insts += 1;
                        sweeps::record_ref(&mut stats, &ex);
                        let info = pipe.advance_traced(&ex, &mut stats);
                        chunk.push((ex, info));
                    }
                    Err(e) => {
                        problems.push(e.to_string());
                        break;
                    }
                }
            }
            let began = Instant::now();
            for (ex, info) in &chunk {
                if let Err(e) = chk.check_insn(ex, info) {
                    problems.push(e.to_string());
                    break;
                }
            }
            t.span("sim.checker", id, began, chunk.len() as u64);
        }
        stats.cycles = pipe.finish(&mut stats);
        if problems.is_empty() {
            if let Err(e) = chk.check_finish(&stats, &pipe) {
                problems.push(e.to_string());
            }
            if let Some(row) = cx.expected.0.get(cx.programs[p].name) {
                if row.cycles[1] != stats.cycles {
                    problems.push(format!(
                        "cycles {} != expected {}",
                        stats.cycles, row.cycles[1]
                    ));
                }
            }
        }
        cx.tally.record(&label, problems);
    }
}

/// A `Recorder`-observed run against a plain (`NullObserver`) run of the
/// same FAC cells; both must match the expected outcome.
fn observer(cx: &mut Cx, t: &mut Tracer, set: &[usize]) {
    let machine = Machine::new(config(1)).with_max_insts(fac_bench::MAX_INSTS);
    for &p in set {
        let name = cx.programs[p].name;
        let id = t.cell(format!("{name}/{} observed", CONFIGS[1]));
        let program = &cx.programs[p].program;
        let began = Instant::now();
        let plain = machine.run(program);
        t.span("sim.run_null", id, began, 1);
        let began = Instant::now();
        let mut rec = Recorder::new();
        let observed = machine.run_observed(program, &mut rec);
        t.span("sim.run_recorder", id, began, 1);
        for (label, run) in [("plain", plain), ("observed", observed)] {
            let label = format!("{name}/{} {label}", CONFIGS[1]);
            match run {
                Ok(r) => {
                    let bad = cx.expected.detail(name, 1, &r);
                    cx.tally.record(&label, bad);
                }
                Err(e) => cx.tally.error(&label, &e),
            }
        }
    }
}
