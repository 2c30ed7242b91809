//! Checkpoint framing: the container around a serialized machine state.
//!
//! A snapshot file is self-describing and tamper-evident:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `"FACSNAP\0"` |
//! | 8      | 4    | format version (little-endian u32, currently 1) |
//! | 12     | 8    | payload length (little-endian u64) |
//! | 20     | n    | payload (see [`crate::Session::checkpoint`]) |
//! | 20 + n | 8    | FNV-1a checksum of the payload (little-endian u64) |
//!
//! The payload itself opens with two fingerprints — FNV-1a digests of the
//! machine configuration and of the program — so a snapshot can only be
//! restored into the exact (configuration, program) pair that produced it.
//! Everything after the fingerprints is the field-by-field machine state
//! written with [`fac_core::snap::SnapWriter`].
//!
//! Any deviation — wrong magic, unknown version, truncation, trailing
//! bytes, checksum mismatch, fingerprint mismatch, or an implausible field
//! while decoding — is rejected with a typed error before any simulation
//! state is touched.

use crate::checker::InvariantChecker;
use crate::exec::ArchState;
use crate::pipeline::Pipeline;
use crate::stats::SimStats;
use crate::{FacConfig, FuConfig, FuTiming, LoadLatencyMode, MachineConfig, PipelineOrg};
use fac_asm::Program;
use fac_core::snap::{fnv1a, SnapError, SnapReader, SnapWriter, FNV_OFFSET};
use fac_core::{FaultKind, FaultPlan, IndexCompose, PredictorConfig};
use fac_mem::{CacheConfig, CacheStats, TlbStats};

/// File magic: identifies a fast-address-calculation machine snapshot.
pub(crate) const MAGIC: &[u8; 8] = b"FACSNAP\0";
/// Current snapshot format version.
pub(crate) const VERSION: u32 = 1;
/// Bytes of the container header (magic + version + length).
const HEADER: usize = 8 + 4 + 8;
/// Bytes of framing around the payload (header + checksum).
const OVERHEAD: usize = HEADER + 8;

/// Wraps a payload in the snapshot container (magic, version, length,
/// payload, checksum).
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + OVERHEAD);
    open_frame(&mut out);
    out.extend_from_slice(payload);
    seal_frame(&mut out);
    out
}

/// Clears `buf` and writes a container header whose payload length
/// [`seal_frame`] fills in once the payload has been appended.
fn open_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes());
}

/// Completes a container begun by [`open_frame`]: everything after the
/// header is the payload.
fn seal_frame(buf: &mut Vec<u8>) {
    let payload = &buf[HEADER..];
    let len = (payload.len() as u64).to_le_bytes();
    let sum = fnv1a(FNV_OFFSET, payload).to_le_bytes();
    buf[HEADER - 8..HEADER].copy_from_slice(&len);
    buf.extend_from_slice(&sum);
}

/// Validates the container and returns the payload slice.
pub(crate) fn unframe(bytes: &[u8]) -> Result<&[u8], SnapError> {
    if bytes.len() < OVERHEAD {
        return Err(SnapError::new(format!(
            "truncated snapshot: {} bytes, need at least {OVERHEAD}",
            bytes.len()
        )));
    }
    if &bytes[..8] != MAGIC {
        return Err(SnapError::new("not a FACSNAP snapshot (bad magic)".to_string()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(SnapError::new(format!(
            "unsupported snapshot version {version} (this build reads version {VERSION})"
        )));
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let expected = (bytes.len() - OVERHEAD) as u64;
    if len != expected {
        return Err(SnapError::new(format!(
            "snapshot length mismatch: header claims {len} payload bytes, file holds {expected}"
        )));
    }
    let payload = &bytes[HEADER..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let computed = fnv1a(FNV_OFFSET, payload);
    if stored != computed {
        return Err(SnapError::new(format!(
            "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    Ok(payload)
}

/// FNV-1a digest of the machine configuration's canonical encoding: every
/// field, nested structures and enum discriminants included, written in
/// declaration order with [`SnapWriter`] (see [`write_config`]). Adding a
/// field to any of the configuration types fails to compile here until
/// the encoding covers it.
///
/// Public because the campaign server keys its content-addressed result
/// cache on (configuration fingerprint × program fingerprint) — the same
/// identities the checkpoint frames verify on restore.
pub fn config_fingerprint(config: &MachineConfig) -> u64 {
    let mut w = SnapWriter::new();
    write_config(config, &mut w);
    fnv1a(FNV_OFFSET, &w.into_bytes())
}

/// The canonical encoding behind [`config_fingerprint`].
fn write_config(config: &MachineConfig, w: &mut SnapWriter) {
    let MachineConfig {
        fetch_width,
        issue_width,
        max_loads_per_cycle,
        max_stores_per_cycle,
        icache,
        dcache,
        miss_latency,
        dcache_read_ports,
        dcache_write_ports,
        btb_entries,
        branch_mispredict_penalty,
        store_buffer_entries,
        mshr_entries,
        fu,
        fac,
        ltb_entries,
        pipeline_org,
        load_latency,
        perfect_dcache,
        model_tlb,
        fault_plan,
        checks,
        strict_mem,
    } = *config;
    w.u32(fetch_width);
    w.u32(issue_width);
    w.u32(max_loads_per_cycle);
    w.u32(max_stores_per_cycle);
    for cache in [icache, dcache] {
        let CacheConfig { size_bytes, block_bytes, ways, write_back, write_allocate } = cache;
        w.u32(size_bytes);
        w.u32(block_bytes);
        w.u32(ways);
        w.bool(write_back);
        w.bool(write_allocate);
    }
    w.u64(miss_latency);
    w.u32(dcache_read_ports);
    w.u32(dcache_write_ports);
    w.u32(btb_entries);
    w.u64(branch_mispredict_penalty);
    w.len_of(store_buffer_entries);
    w.u32(mshr_entries);
    let FuConfig {
        int_alu_units,
        load_store_units,
        fp_add_units,
        int_mul_units,
        fp_mul_units,
        int_alu,
        int_mul,
        int_div,
        fp_add,
        fp_mul,
        fp_div,
    } = fu;
    for units in [int_alu_units, load_store_units, fp_add_units, int_mul_units, fp_mul_units] {
        w.u32(units);
    }
    for FuTiming { latency, interval } in [int_alu, int_mul, int_div, fp_add, fp_mul, fp_div] {
        w.u64(latency);
        w.u64(interval);
    }
    w.bool(fac.is_some());
    if let Some(FacConfig { predictor }) = fac {
        let PredictorConfig { full_tag_add, compose, speculate_reg_reg, speculate_stores } =
            predictor;
        w.bool(full_tag_add);
        w.u8(match compose {
            IndexCompose::Or => 0,
            IndexCompose::Xor => 1,
        });
        w.bool(speculate_reg_reg);
        w.bool(speculate_stores);
    }
    w.bool(ltb_entries.is_some());
    if let Some(entries) = ltb_entries {
        w.u32(entries);
    }
    w.u8(match pipeline_org {
        PipelineOrg::Lui => 0,
        PipelineOrg::Agi => 1,
    });
    w.u8(match load_latency {
        LoadLatencyMode::Normal => 0,
        LoadLatencyMode::OneCycle => 1,
    });
    w.bool(perfect_dcache);
    w.bool(model_tlb);
    w.bool(fault_plan.is_some());
    if let Some(FaultPlan { kind, seed }) = fault_plan {
        match kind {
            FaultKind::AlwaysWrong => w.u8(0),
            FaultKind::RandomFlip { wrong_per_1024 } => {
                w.u8(1);
                w.u32(u32::from(wrong_per_1024));
            }
            FaultKind::FlipIndexBit { bit } => {
                w.u8(2);
                w.u32(bit);
            }
            FaultKind::SuppressSignals => w.u8(3),
            FaultKind::SilentWrong => w.u8(4),
        }
        w.u64(seed);
    }
    w.bool(checks);
    w.bool(strict_mem);
}

/// FNV-1a digest of the program identity: the name, the layout registers
/// and `static_bytes`, then every instruction as its little-endian
/// [`fac_isa::encode`] word (lossless: `decode(encode(i)) == i`), then
/// every data blob as its address, byte length and raw bytes. Both
/// sequences are prefixed by their element counts. Symbol tables are
/// deliberately excluded (their map order is not canonical, and they do
/// not affect execution).
///
/// The hash reads every data byte, so callers on a hot path compute it
/// once per built program and keep it beside the program.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a(h, program.name.as_bytes());
    for word in [
        program.text_base,
        program.entry,
        program.gp,
        program.sp,
        program.heap_base,
    ] {
        h = fnv1a(h, &word.to_le_bytes());
    }
    h = fnv1a(h, &program.static_bytes.to_le_bytes());
    h = fnv1a(h, &(program.text.len() as u64).to_le_bytes());
    for insn in &program.text {
        h = fnv1a(h, &fac_isa::encode(insn).to_le_bytes());
    }
    h = fnv1a(h, &(program.data.len() as u64).to_le_bytes());
    for blob in &program.data {
        h = fnv1a(h, &blob.addr.to_le_bytes());
        h = fnv1a(h, &(blob.bytes.len() as u64).to_le_bytes());
        h = fnv1a(h, &blob.bytes);
    }
    h
}

/// The two identities a snapshot payload opens with. A run that takes or
/// restores many snapshots of one (configuration, program) pair computes
/// them once and passes them along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fingerprints {
    pub(crate) config: u64,
    pub(crate) program: u64,
}

impl Fingerprints {
    /// Both fingerprints of `(config, program)`.
    pub(crate) fn of(config: &MachineConfig, program: &Program) -> Fingerprints {
        Fingerprints { config: config_fingerprint(config), program: program_fingerprint(program) }
    }
}

/// Wraps a purely architectural state in a full machine snapshot — the
/// hand-off from the fast functional tier ([`crate::tier`]) to the
/// detailed pipeline. The payload is byte-compatible with
/// [`crate::Session::checkpoint`]: the architectural registers and memory
/// come from `state`, while every timing structure (pipeline, statistics,
/// invariant checker) is written *fresh*, exactly as [`crate::Machine::begin`]
/// would build it. Restoring the result with [`crate::Machine::restore`]
/// therefore yields a detailed session that starts timing from a cold
/// pipeline at `state`'s program point, with zeroed statistics — so a
/// measurement window's CPI is purely the window's own work.
///
/// The caller is responsible for `state.strict_mem` matching
/// `config.strict_mem` (the fast tier guarantees this by construction);
/// the fingerprints guard config/program identity as for any snapshot.
pub fn functional_snapshot(
    config: &MachineConfig,
    program: &Program,
    state: &ArchState,
) -> Vec<u8> {
    let mut hand_off = HandOff::new(config, program);
    hand_off.snapshot(state);
    hand_off.buf
}

/// [`functional_snapshot`] for many states of one (configuration,
/// program) pair, as a sampled run takes one per window. Everything but
/// the architectural state is the same in each snapshot, so the
/// fingerprints and the encoding of the fresh timing structures are
/// computed once, and every snapshot is framed in place in one retained
/// buffer: a window allocates no snapshot-sized buffer, and how long it
/// takes does not depend on what the allocator does with large blocks.
pub(crate) struct HandOff {
    /// Both identities of the pair.
    pub(crate) fps: Fingerprints,
    /// The payload after the architectural state: zeroed statistics, a
    /// fresh pipeline and a fresh invariant checker.
    fresh: Vec<u8>,
    /// The last snapshot taken.
    buf: Vec<u8>,
}

impl HandOff {
    /// The hand-off of `(config, program)`.
    pub(crate) fn new(config: &MachineConfig, program: &Program) -> HandOff {
        let mut w = SnapWriter::new();
        save_stats(&SimStats::default(), &mut w);
        Pipeline::new(*config).save_state(&mut w);
        // Always carry fresh checker state: a checking machine (debug
        // builds, --checks) requires it, and a non-checking machine skips
        // past it.
        w.u8(1);
        InvariantChecker::new(config).save_state(&mut w);
        HandOff { fps: Fingerprints::of(config, program), fresh: w.into_bytes(), buf: Vec::new() }
    }

    /// The framed snapshot of `state`, valid until the next call.
    pub(crate) fn snapshot(&mut self, state: &ArchState) -> &[u8] {
        let mut buf = std::mem::take(&mut self.buf);
        open_frame(&mut buf);
        let mut w = SnapWriter::appending(buf);
        w.u64(self.fps.config);
        w.u64(self.fps.program);
        state.save_state(&mut w);
        let mut buf = w.into_bytes();
        buf.extend_from_slice(&self.fresh);
        seal_frame(&mut buf);
        self.buf = buf;
        &self.buf
    }
}

fn save_cache_stats(s: &CacheStats, w: &mut SnapWriter) {
    w.u64(s.accesses);
    w.u64(s.reads);
    w.u64(s.writes);
    w.u64(s.misses);
    w.u64(s.read_misses);
    w.u64(s.writebacks);
}

fn load_cache_stats(r: &mut SnapReader<'_>) -> Result<CacheStats, SnapError> {
    Ok(CacheStats {
        accesses: r.u64("cache stats accesses")?,
        reads: r.u64("cache stats reads")?,
        writes: r.u64("cache stats writes")?,
        misses: r.u64("cache stats misses")?,
        read_misses: r.u64("cache stats read_misses")?,
        writebacks: r.u64("cache stats writebacks")?,
    })
}

/// Serializes every statistics counter.
pub(crate) fn save_stats(s: &SimStats, w: &mut SnapWriter) {
    w.u64(s.insts);
    w.u64(s.cycles);
    w.u64(s.loads);
    w.u64(s.stores);
    for v in s.loads_by_class {
        w.u64(v);
    }
    for v in s.stores_by_class {
        w.u64(v);
    }
    w.u64(s.loads_reg_reg);
    for h in &s.load_offsets {
        w.u64(h.neg);
        for v in h.by_bits {
            w.u64(v);
        }
        w.u64(h.more);
    }
    w.u64(s.branches);
    w.u64(s.branch_mispredicts);
    for p in [&s.pred_loads, &s.pred_stores] {
        w.u64(p.attempts_const);
        w.u64(p.fails_const);
        w.u64(p.attempts_rr);
        w.u64(p.fails_rr);
        w.u64(p.not_speculated);
    }
    for v in s.fail_causes {
        w.u64(v);
    }
    w.u64(s.verify_catches);
    w.u64(s.extra_accesses);
    w.u64(s.store_buffer_stalls);
    save_cache_stats(&s.icache, w);
    save_cache_stats(&s.dcache, w);
    match &s.tlb {
        None => w.bool(false),
        Some(t) => {
            w.bool(true);
            w.u64(t.accesses);
            w.u64(t.misses);
        }
    }
    match &s.ltb {
        None => w.bool(false),
        Some(l) => {
            w.bool(true);
            w.u64(l.predictions);
            w.u64(l.correct);
            w.u64(l.no_prediction);
        }
    }
    w.u64(s.mem_footprint);
}

/// Restores [`save_stats`].
pub(crate) fn load_stats(r: &mut SnapReader<'_>) -> Result<SimStats, SnapError> {
    let mut s = SimStats {
        insts: r.u64("stats insts")?,
        cycles: r.u64("stats cycles")?,
        loads: r.u64("stats loads")?,
        stores: r.u64("stats stores")?,
        ..SimStats::default()
    };
    for v in &mut s.loads_by_class {
        *v = r.u64("stats loads_by_class")?;
    }
    for v in &mut s.stores_by_class {
        *v = r.u64("stats stores_by_class")?;
    }
    s.loads_reg_reg = r.u64("stats loads_reg_reg")?;
    for h in &mut s.load_offsets {
        h.neg = r.u64("offset histogram neg")?;
        for v in &mut h.by_bits {
            *v = r.u64("offset histogram bucket")?;
        }
        h.more = r.u64("offset histogram more")?;
    }
    s.branches = r.u64("stats branches")?;
    s.branch_mispredicts = r.u64("stats branch_mispredicts")?;
    for p in [&mut s.pred_loads, &mut s.pred_stores] {
        p.attempts_const = r.u64("pred attempts_const")?;
        p.fails_const = r.u64("pred fails_const")?;
        p.attempts_rr = r.u64("pred attempts_rr")?;
        p.fails_rr = r.u64("pred fails_rr")?;
        p.not_speculated = r.u64("pred not_speculated")?;
    }
    for v in &mut s.fail_causes {
        *v = r.u64("stats fail_causes")?;
    }
    s.verify_catches = r.u64("stats verify_catches")?;
    s.extra_accesses = r.u64("stats extra_accesses")?;
    s.store_buffer_stalls = r.u64("stats store_buffer_stalls")?;
    s.icache = load_cache_stats(r)?;
    s.dcache = load_cache_stats(r)?;
    s.tlb = if r.bool("tlb stats present")? {
        Some(TlbStats { accesses: r.u64("tlb stats accesses")?, misses: r.u64("tlb stats misses")? })
    } else {
        None
    };
    s.ltb = if r.bool("ltb stats present")? {
        Some(fac_core::LtbStats {
            predictions: r.u64("ltb stats predictions")?,
            correct: r.u64("ltb stats correct")?,
            no_prediction: r.u64("ltb stats no_prediction")?,
        })
    } else {
        None
    };
    s.mem_footprint = r.u64("stats mem_footprint")?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips() {
        let payload = b"hello snapshot".to_vec();
        let framed = frame(&payload);
        assert_eq!(unframe(&framed).unwrap(), &payload[..]);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let framed = frame(&[]);
        assert_eq!(unframe(&framed).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let framed = frame(b"payload bytes here");
        for n in 0..framed.len() {
            assert!(unframe(&framed[..n]).is_err(), "prefix of {n} bytes accepted");
        }
    }

    #[test]
    fn every_byte_flip_is_rejected() {
        let framed = frame(b"sensitive machine state");
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x01;
            assert!(unframe(&bad).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut framed = frame(b"x");
        framed[8..12].copy_from_slice(&2u32.to_le_bytes());
        let err = unframe(&framed).unwrap_err();
        assert!(err.to_string().contains("version"), "got {err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut framed = frame(b"x");
        framed.push(0);
        assert!(unframe(&framed).is_err());
    }

    /// Every single-field change of the FAC configuration — nested
    /// structures, enum variants and `Option` payloads included — moves
    /// the fingerprint, and no two of the changes collide.
    #[test]
    fn every_config_field_changes_the_fingerprint() {
        let base = MachineConfig::paper_baseline().with_fac();
        let plan = FaultPlan::new(FaultKind::AlwaysWrong);
        type Edit = (&'static str, fn(&mut MachineConfig));
        let edits: Vec<Edit> = vec![
            ("fetch_width", |c| c.fetch_width += 1),
            ("issue_width", |c| c.issue_width += 1),
            ("max_loads_per_cycle", |c| c.max_loads_per_cycle += 1),
            ("max_stores_per_cycle", |c| c.max_stores_per_cycle += 1),
            ("icache.size_bytes", |c| c.icache.size_bytes *= 2),
            ("icache.block_bytes", |c| c.icache.block_bytes *= 2),
            ("icache.ways", |c| c.icache.ways += 1),
            ("icache.write_back", |c| c.icache.write_back ^= true),
            ("icache.write_allocate", |c| c.icache.write_allocate ^= true),
            ("dcache.size_bytes", |c| c.dcache.size_bytes *= 2),
            ("dcache.block_bytes", |c| c.dcache.block_bytes *= 2),
            ("dcache.ways", |c| c.dcache.ways += 1),
            ("dcache.write_back", |c| c.dcache.write_back ^= true),
            ("dcache.write_allocate", |c| c.dcache.write_allocate ^= true),
            ("miss_latency", |c| c.miss_latency += 1),
            ("dcache_read_ports", |c| c.dcache_read_ports += 1),
            ("dcache_write_ports", |c| c.dcache_write_ports += 1),
            ("btb_entries", |c| c.btb_entries += 1),
            ("branch_mispredict_penalty", |c| c.branch_mispredict_penalty += 1),
            ("store_buffer_entries", |c| c.store_buffer_entries += 1),
            ("mshr_entries", |c| c.mshr_entries += 1),
            ("fu.int_alu_units", |c| c.fu.int_alu_units += 1),
            ("fu.load_store_units", |c| c.fu.load_store_units += 1),
            ("fu.fp_add_units", |c| c.fu.fp_add_units += 1),
            ("fu.int_mul_units", |c| c.fu.int_mul_units += 1),
            ("fu.fp_mul_units", |c| c.fu.fp_mul_units += 1),
            ("fu.int_alu.latency", |c| c.fu.int_alu.latency += 1),
            ("fu.int_alu.interval", |c| c.fu.int_alu.interval += 1),
            ("fu.int_mul.latency", |c| c.fu.int_mul.latency += 1),
            ("fu.int_mul.interval", |c| c.fu.int_mul.interval += 1),
            ("fu.int_div.latency", |c| c.fu.int_div.latency += 1),
            ("fu.int_div.interval", |c| c.fu.int_div.interval += 1),
            ("fu.fp_add.latency", |c| c.fu.fp_add.latency += 1),
            ("fu.fp_add.interval", |c| c.fu.fp_add.interval += 1),
            ("fu.fp_mul.latency", |c| c.fu.fp_mul.latency += 1),
            ("fu.fp_mul.interval", |c| c.fu.fp_mul.interval += 1),
            ("fu.fp_div.latency", |c| c.fu.fp_div.latency += 1),
            ("fu.fp_div.interval", |c| c.fu.fp_div.interval += 1),
            ("fac", |c| c.fac = None),
            ("fac.full_tag_add", |c| {
                c.fac.as_mut().unwrap().predictor.full_tag_add ^= true;
            }),
            ("fac.compose", |c| c.fac.as_mut().unwrap().predictor.compose = IndexCompose::Xor),
            ("fac.speculate_reg_reg", |c| {
                c.fac.as_mut().unwrap().predictor.speculate_reg_reg ^= true;
            }),
            ("fac.speculate_stores", |c| {
                c.fac.as_mut().unwrap().predictor.speculate_stores ^= true;
            }),
            ("ltb_entries", |c| c.ltb_entries = Some(64)),
            ("pipeline_org", |c| c.pipeline_org = PipelineOrg::Agi),
            ("load_latency", |c| c.load_latency = LoadLatencyMode::OneCycle),
            ("perfect_dcache", |c| c.perfect_dcache ^= true),
            ("model_tlb", |c| c.model_tlb ^= true),
            ("fault_plan", |c| c.fault_plan = Some(FaultPlan::new(FaultKind::AlwaysWrong))),
            ("checks", |c| c.checks ^= true),
            ("strict_mem", |c| c.strict_mem ^= true),
        ];
        let mut seen = std::collections::HashMap::new();
        seen.insert(config_fingerprint(&base), "base");
        for (name, edit) in edits {
            let mut changed = base;
            edit(&mut changed);
            assert_ne!(changed, base, "{name}: the edit is a no-op");
            if let Some(other) = seen.insert(config_fingerprint(&changed), name) {
                panic!("{name} collides with {other}");
            }
        }
        // The fault plan's own fields and kinds.
        let kinds = [
            FaultKind::AlwaysWrong,
            FaultKind::RandomFlip { wrong_per_1024: 256 },
            FaultKind::RandomFlip { wrong_per_1024: 257 },
            FaultKind::FlipIndexBit { bit: 0 },
            FaultKind::FlipIndexBit { bit: 3 },
            FaultKind::SuppressSignals,
            FaultKind::SilentWrong,
        ];
        let mut plans: Vec<FaultPlan> = kinds.iter().map(|&k| FaultPlan::new(k)).collect();
        plans.push(plan.with_seed(plan.seed + 1));
        let mut fps = std::collections::HashSet::new();
        for p in &plans {
            assert!(fps.insert(config_fingerprint(&base.with_fault_plan(*p))), "{p:?} collides");
        }
        // `ltb_entries` payloads are hashed too.
        let ltb = |n| config_fingerprint(&MachineConfig { ltb_entries: Some(n), ..base });
        assert_ne!(ltb(64), ltb(128));
    }

    fn tiny_program() -> Program {
        use fac_isa::{AluImmOp, Insn, Reg};
        Program {
            name: "tiny".into(),
            text_base: 0x0040_0000,
            text: vec![
                Insn::AluImm { op: AluImmOp::Addiu, rt: Reg::T0, rs: Reg::ZERO, imm: 7 },
                Insn::Halt,
            ],
            entry: 0x0040_0000,
            gp: 0x1000_8000,
            sp: 0x7fff_c000,
            heap_base: 0x2000_0000,
            data: vec![
                fac_asm::DataBlob { addr: 0x1000_0000, bytes: vec![1, 2, 3, 4] },
                fac_asm::DataBlob { addr: 0x1000_0010, bytes: vec![5, 6] },
            ],
            symbols: std::collections::HashMap::new(),
            static_bytes: 6,
        }
    }

    #[test]
    fn every_data_byte_and_instruction_changes_the_program_fingerprint() {
        use fac_isa::{AluImmOp, Insn, Reg};
        let base = tiny_program();
        let fp = program_fingerprint(&base);
        for b in 0..base.data.len() {
            for i in 0..base.data[b].bytes.len() {
                let mut p = base.clone();
                p.data[b].bytes[i] ^= 0x01;
                assert_ne!(program_fingerprint(&p), fp, "flip in blob {b} byte {i}");
            }
            let mut p = base.clone();
            p.data[b].addr += 4;
            assert_ne!(program_fingerprint(&p), fp, "moved blob {b}");
        }
        // Moving a byte from one blob to the next keeps the concatenated
        // bytes but not the fingerprint (lengths are hashed).
        let mut p = base.clone();
        let moved = p.data[0].bytes.pop().unwrap();
        p.data[1].bytes.insert(0, moved);
        assert_ne!(program_fingerprint(&p), fp, "blob boundary moved");
        let mut p = base.clone();
        p.text[0] = Insn::AluImm { op: AluImmOp::Addiu, rt: Reg::T0, rs: Reg::ZERO, imm: 8 };
        assert_ne!(program_fingerprint(&p), fp, "changed immediate");
        let mut p = base.clone();
        p.text[0] = Insn::AluImm { op: AluImmOp::Addiu, rt: Reg::T1, rs: Reg::ZERO, imm: 7 };
        assert_ne!(program_fingerprint(&p), fp, "changed register");
        let mut p = base.clone();
        p.text.swap(0, 1);
        assert_ne!(program_fingerprint(&p), fp, "reordered text");
        // Symbols are not part of the identity.
        let mut p = base.clone();
        p.symbols.insert("x".into(), 0x1000_0000);
        assert_eq!(program_fingerprint(&p), fp);
    }

    #[test]
    fn a_reused_hand_off_matches_fresh_snapshots() {
        let config = MachineConfig::paper_baseline().with_fac();
        let program = tiny_program();
        let small = ArchState::new(&program);
        let mut large = small.clone();
        for page in 0..8 {
            large.mem.write_u32(0x3000_0000 + page * 4096, page);
        }
        large.pc += 4;
        let mut hand_off = HandOff::new(&config, &program);
        // A smaller state after a larger one leaves no stale bytes.
        for state in [&large, &small, &large] {
            assert_eq!(
                hand_off.snapshot(state),
                &functional_snapshot(&config, &program, state)[..]
            );
        }
        let session = crate::Machine::new(config).restore(&program, hand_off.snapshot(&small)).unwrap();
        assert_eq!(session.state().pc, small.pc);
    }

    #[test]
    fn stats_roundtrip() {
        let mut s = SimStats { insts: 7, cycles: 11, loads: 3, ..SimStats::default() };
        s.load_offsets[1].record(42);
        s.tlb = Some(TlbStats { accesses: 5, misses: 2 });
        s.ltb = Some(fac_core::LtbStats { predictions: 9, correct: 8, no_prediction: 1 });
        let mut w = SnapWriter::new();
        save_stats(&s, &mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = load_stats(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, s);
    }
}
