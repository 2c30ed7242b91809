//! The detail, fast and sampled sweeps: each as the user runs it
//! (through the public entry points) and as the traced pass runs it
//! (through the benchmark's own loop, with spans around every layer
//! call).

use crate::expected::{config, CONFIGS, SAMPLE};
use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::{Cx, Rep};
use fac_bench::MAX_INSTS;
use fac_core::{AddrFields, Predictor};
use fac_mem::Cache;
use fac_sim::tier::{run_fast, run_sampled, Functional, SampledReport, WindowStats};
use fac_sim::{
    functional_snapshot, ArchState, Executed, Machine, Pipeline, RefClass, SimError, SimReport,
    SimStats,
};
use std::hint::black_box;
use std::time::Instant;

/// Dynamic instructions stepped before the pipeline consumes them in the
/// traced detail loop. The pipeline only reads the executed stream, so
/// batching leaves timing bit-identical while each span covers thousands
/// of calls.
pub const CHUNK: usize = 8192;

/// Every program under each of `configs` (indices into [`CONFIGS`]), in
/// seed order.
pub fn cells(cx: &Cx, rng: &mut Rng, configs: &[usize]) -> Vec<(usize, usize)> {
    let mut cells: Vec<(usize, usize)> = (0..cx.programs.len())
        .flat_map(|p| configs.iter().map(move |&c| (p, c)))
        .collect();
    rng.shuffle(&mut cells);
    cells
}

fn label(cx: &Cx, p: usize, c: usize) -> String {
    format!("{}/{}", cx.programs[p].name, CONFIGS[c])
}

/// Rep bookkeeping shared by the simulation sweeps.
struct Timer {
    start: Instant,
    rep: Rep,
}

impl Timer {
    fn new() -> Timer {
        Timer {
            start: Instant::now(),
            rep: Rep::default(),
        }
    }

    fn cell(&mut self, began: Instant, insts: u64) {
        self.rep.cell_us.push(began.elapsed().as_secs_f64() * 1e6);
        self.rep.sim_insts += insts;
    }

    fn done(mut self) -> Rep {
        self.rep.wall_s = self.start.elapsed().as_secs_f64();
        self.rep.sim_s = self.rep.wall_s;
        if !self.rep.cell_us.is_empty() {
            self.rep.sweep_p50_us.push(median(&self.rep.cell_us));
        }
        self.rep
    }
}

/// One detail sweep: all 19 × 2 cells through `Machine::run`.
pub fn detail(cx: &mut Cx, rng: &mut Rng) -> Rep {
    let mut timer = Timer::new();
    for (p, c) in cells(cx, rng, &[0, 1]) {
        let began = Instant::now();
        let run = fac_bench::run(&cx.programs[p].program, config(c));
        let insts = run.as_ref().map_or(0, |r| r.stats.insts);
        timer.cell(began, insts);
        check_detail(cx, p, c, run);
    }
    timer.done()
}

fn check_detail(cx: &mut Cx, p: usize, c: usize, run: Result<SimReport, SimError>) {
    let label = label(cx, p, c);
    match run {
        Ok(r) => {
            cx.tally.show(
                &label,
                format_args!("cycles={} insts={}", r.stats.cycles, r.stats.insts),
            );
            let bad = cx.expected.detail(cx.programs[p].name, c, &r);
            cx.tally.record(&label, bad);
        }
        Err(e) => cx.tally.error(&label, &e),
    }
}

/// Passes of the 19 programs that make one fast-sweep repetition.
pub const FAST_PASSES: usize = 10;

/// One fast sweep: [`FAST_PASSES`] passes of the 19 programs through
/// `tier::run_fast` under the FAC configuration.
pub fn fast(cx: &mut Cx, rng: &mut Rng) -> Rep {
    let mut timer = Timer::new();
    for _ in 0..FAST_PASSES {
        for (p, c) in cells(cx, rng, &[1]) {
            let began = Instant::now();
            let run = run_fast(&config(c), &cx.programs[p].program, MAX_INSTS);
            let insts = run.as_ref().map_or(0, |r| r.insts);
            timer.cell(began, insts);
            let label = label(cx, p, c);
            match run {
                Ok(r) => {
                    cx.tally.show(&label, format_args!("insts={}", r.insts));
                    let bad = cx
                        .expected
                        .fast(cx.programs[p].name, r.insts, &r.final_state);
                    cx.tally.record(&label, bad);
                }
                Err(e) => cx.tally.error(&label, &e),
            }
        }
    }
    timer.done()
}

/// One sampled sweep: all 19 × 2 cells through `tier::run_sampled`.
/// Simulated instructions count both the fast-forwarded and the windowed
/// ones (every instruction of the program).
pub fn sampled(cx: &mut Cx, rng: &mut Rng) -> Rep {
    let mut timer = Timer::new();
    for (p, c) in cells(cx, rng, &[0, 1]) {
        let began = Instant::now();
        let run = run_sampled(&config(c), &cx.programs[p].program, SAMPLE, MAX_INSTS);
        let insts = run.as_ref().map_or(0, |r| r.insts);
        timer.cell(began, insts);
        check_sampled(cx, p, c, run, None);
    }
    timer.done()
}

fn check_sampled(
    cx: &mut Cx,
    p: usize,
    c: usize,
    run: Result<SampledReport, SimError>,
    t: Option<&mut Tracer>,
) {
    let label = label(cx, p, c);
    match run {
        Ok(r) => {
            let name = cx.programs[p].name;
            cx.tally.show(
                &label,
                format_args!("est_cycles={} windows={}", r.est_cycles, r.windows.len()),
            );
            if let (Some(t), Some(cpi)) = (t, cx.expected.detail_cpi(name, c)) {
                t.cpi_errs.push((r.cpi - cpi).abs() / cpi * 100.0);
            }
            let bad = cx.expected.sampled(name, c, &r);
            cx.tally.record(&label, bad);
        }
        Err(e) => cx.tally.error(&label, &e),
    }
}

/// The traced detail sweep over `cells`: the benchmark's own
/// step/advance loop, plus a replay of each FAC cell's data references
/// through the predictor, the data cache and `Memory::read_u32`.
pub fn detail_traced(cx: &mut Cx, t: &mut Tracer, cells: &[(usize, usize)]) {
    for &(p, c) in cells {
        let id = t.cell(label(cx, p, c));
        let began = Instant::now();
        let run = detail_cell(cx, t, id, p, c);
        t.span("sim.cell", id, began, 1);
        check_detail(cx, p, c, run);
    }
}

fn detail_cell(
    cx: &Cx,
    t: &mut Tracer,
    id: usize,
    p: usize,
    c: usize,
) -> Result<SimReport, SimError> {
    let program = &cx.programs[p].program;
    let cfg = config(c);
    let mut state = ArchState::new(program);
    state.strict_mem = cfg.strict_mem;
    let mut pipe = Pipeline::new(cfg);
    let mut stats = SimStats::default();
    let mut replay = (t.on && c == 1).then(|| Replay::new(&cfg));
    let mut chunk: Vec<Executed> = Vec::with_capacity(CHUNK);
    while !state.halted {
        chunk.clear();
        let began = Instant::now();
        while chunk.len() < CHUNK && !state.halted {
            if stats.insts + chunk.len() as u64 >= MAX_INSTS {
                return Err(SimError::Runaway(MAX_INSTS));
            }
            chunk.push(state.step(program)?);
        }
        t.span("sim.step", id, began, chunk.len() as u64);
        stats.insts += chunk.len() as u64;
        let began = Instant::now();
        for ex in &chunk {
            record_ref(&mut stats, ex);
        }
        t.span("sim.record_ref", id, began, chunk.len() as u64);
        let began = Instant::now();
        for ex in &chunk {
            pipe.advance(ex, &mut stats);
        }
        t.span("sim.advance", id, began, chunk.len() as u64);
        if let Some(r) = &mut replay {
            r.replay(t, id, &chunk, &state);
        }
    }
    stats.cycles = pipe.finish(&mut stats);
    if let Some(r) = replay {
        r.finish(t);
    }
    Ok(SimReport {
        program: program.name.clone(),
        stats,
        final_state: state,
    })
}

/// The reference-classification statistics `Machine::run` records for
/// each committed instruction (the simulator's own helper is private to
/// its crate).
pub fn record_ref(stats: &mut SimStats, ex: &Executed) {
    let Some(mref) = &ex.mem else { return };
    let class = RefClass::of(mref.base_reg);
    if mref.is_store {
        stats.stores += 1;
        stats.stores_by_class[class.index()] += 1;
    } else {
        stats.loads += 1;
        stats.loads_by_class[class.index()] += 1;
        if mref.is_reg_reg() {
            stats.loads_reg_reg += 1;
        }
        stats.load_offsets[class.index()].record(mref.offset_value());
    }
}

/// Replays a detailed run's data references through the layers the
/// pipeline calls for each of them.
struct Replay {
    predictor: Predictor,
    dcache: Cache,
    refs: Vec<(u32, fac_core::Offset, u32, bool)>,
    predictions: u64,
    fails: u64,
}

impl Replay {
    fn new(cfg: &fac_sim::MachineConfig) -> Replay {
        let fac = cfg.fac.expect("replayed cells run the FAC configuration");
        let d = cfg.dcache;
        Replay {
            predictor: Predictor::new(
                AddrFields::for_set_associative(d.size_bytes, d.block_bytes, d.ways),
                fac.predictor,
            ),
            dcache: Cache::new(d),
            refs: Vec::with_capacity(CHUNK),
            predictions: 0,
            fails: 0,
        }
    }

    fn replay(&mut self, t: &mut Tracer, id: usize, chunk: &[Executed], state: &ArchState) {
        let began = Instant::now();
        self.refs.clear();
        self.refs.extend(
            chunk
                .iter()
                .filter_map(|ex| ex.mem)
                .map(|m| (m.base_value, m.offset, m.addr, m.is_store)),
        );
        let n = self.refs.len() as u64;
        let t0 = Instant::now();
        for &(base, offset, _, _) in &self.refs {
            let p = self.predictor.predict(black_box(base), black_box(offset));
            self.fails += u64::from(!black_box(p).is_correct());
        }
        t.span("core.predict", id, t0, n);
        self.predictions += n;
        let t0 = Instant::now();
        for &(_, _, addr, write) in &self.refs {
            black_box(self.dcache.access(black_box(addr), write));
        }
        t.span("mem.dcache_access", id, t0, n);
        let t0 = Instant::now();
        for &(_, _, addr, _) in &self.refs {
            black_box(state.mem.read_u32(black_box(addr) & !3));
        }
        t.span("mem.read_u32", id, t0, n);
        t.span("replay", id, began, n);
    }

    fn finish(self, t: &mut Tracer) {
        t.count("core.predictions", self.predictions);
        t.count("core.pred_fails", self.fails);
        let s = self.dcache.stats();
        t.count("mem.dcache_accesses", s.accesses);
        t.count("mem.dcache_misses", s.misses);
    }
}

/// The traced fast sweep over `cells`: one span per `Functional` run.
pub fn fast_traced(cx: &mut Cx, t: &mut Tracer, cells: &[(usize, usize)]) {
    for &(p, c) in cells {
        let id = t.cell(label(cx, p, c));
        let program = &cx.programs[p].program;
        let began = Instant::now();
        let mut f = Functional::new(program)
            .with_strict_mem(config(c).strict_mem)
            .with_max_insts(MAX_INSTS);
        let run = f.run_to_halt();
        t.span("tier.fast", id, began, run.as_ref().map_or(0, |&n| n));
        let label = label(cx, p, c);
        match run {
            Ok(_) => {
                let bad = cx.expected.fast(cx.programs[p].name, f.insts(), f.state());
                cx.tally.record(&label, bad);
            }
            Err(e) => cx.tally.error(&label, &e),
        }
        t.count("tier.decoded_blocks", f.into_cache().decoded_blocks());
    }
}

/// The traced sampled sweep over `cells`: `tier::run_sampled`'s loop with
/// a span around every snapshot, restore, window and fast-forward.
pub fn sampled_traced(cx: &mut Cx, t: &mut Tracer, cells: &[(usize, usize)]) {
    for &(p, c) in cells {
        let id = t.cell(label(cx, p, c));
        let began = Instant::now();
        let run = sampled_cell(cx, t, id, p, c);
        t.span("tier.sampled_cell", id, began, 1);
        check_sampled(cx, p, c, run, Some(t));
    }
}

fn sampled_cell(
    cx: &Cx,
    t: &mut Tracer,
    id: usize,
    p: usize,
    c: usize,
) -> Result<SampledReport, SimError> {
    let program = &cx.programs[p].program;
    let cfg = config(c);
    let machine = Machine::new(cfg).with_max_insts(u64::MAX);
    let mut fun = Functional::new(program)
        .with_strict_mem(cfg.strict_mem)
        .with_max_insts(MAX_INSTS);
    let mut windows = Vec::new();
    while !fun.halted() {
        let start = fun.insts();
        let began = Instant::now();
        let snap = functional_snapshot(&cfg, program, fun.state());
        t.span("ckpt.snapshot", id, began, 1);
        t.count("ckpt.snapshot_bytes", snap.len() as u64);
        let began = Instant::now();
        let mut sess = machine.restore(program, &snap)?;
        t.span("ckpt.restore", id, began, 1);
        let began = Instant::now();
        let mut w = 0u64;
        while w < SAMPLE.window && !sess.halted() {
            if fun.insts() + w >= MAX_INSTS {
                return Err(SimError::Runaway(MAX_INSTS));
            }
            if !sess.step()? {
                break;
            }
            w += 1;
        }
        t.span("tier.window_step", id, began, w);
        let began = Instant::now();
        let rep = sess.finish()?;
        t.span("tier.window_finish", id, began, 1);
        windows.push(WindowStats {
            start_inst: start,
            insts: rep.stats.insts,
            cycles: rep.stats.cycles,
        });
        fun.adopt(rep.final_state, w);
        if !fun.halted() && SAMPLE.every > SAMPLE.window {
            let began = Instant::now();
            let n = fun.run(SAMPLE.every - SAMPLE.window)?;
            t.span("tier.fast", id, began, n);
        }
    }
    t.count("ckpt.windows", windows.len() as u64);
    let measured_insts: u64 = windows.iter().map(|w| w.insts).sum();
    let measured_cycles: u64 = windows.iter().map(|w| w.cycles).sum();
    let cpi = if measured_insts == 0 {
        0.0
    } else {
        measured_cycles as f64 / measured_insts as f64
    };
    let insts = fun.insts();
    let final_state = fun.state().clone();
    t.count("tier.decoded_blocks", fun.into_cache().decoded_blocks());
    Ok(SampledReport {
        program: program.name.clone(),
        insts,
        windows,
        measured_insts,
        measured_cycles,
        cpi,
        // The benchmark checks the deterministic fields only.
        cpi_stderr: 0.0,
        est_cycles: (cpi * insts as f64).round() as u64,
        final_state,
    })
}
