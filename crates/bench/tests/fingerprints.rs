//! Pins the identities that key durable state: the program fingerprint of
//! every workload build, the fingerprint of every catalog configuration,
//! and the catalog fingerprint behind `build_version`. Store keys and
//! snapshot frames are derived from these, so an unintended change here
//! would silently re-key every store and orphan every snapshot.
//!
//! The committed values live in `tests/golden/fingerprints.txt`; after an
//! intended change to an encoding, regenerate them with
//! `UPDATE_GOLDEN=1 cargo test -p fac-bench --test fingerprints`.

use fac_asm::{assemble_and_link, fuzz_source, Program, SoftwareSupport};
use fac_bench::serve::{catalog_fingerprint, config_by_name, scale_name, CONFIG_NAMES};
use fac_sim::{config_fingerprint, program_fingerprint};
use fac_workloads::Scale;
use std::fmt::Write as _;
use std::path::Path;

/// Every workload build the server can be asked for, labelled.
fn workload_builds() -> Vec<(String, Program)> {
    let mut builds = Vec::new();
    for workload in fac_workloads::suite() {
        for sw in [false, true] {
            let support = if sw {
                SoftwareSupport::on()
            } else {
                SoftwareSupport::off()
            };
            for scale in [Scale::Smoke, Scale::Paper] {
                let label = format!(
                    "program {} sw={} scale={}",
                    workload.name,
                    u8::from(sw),
                    scale_name(scale)
                );
                builds.push((label, workload.build(&support, scale)));
            }
        }
    }
    builds
}

/// The golden rendering: one `<label> 0x<16 hex>` line per identity.
fn render(builds: &[(String, Program)]) -> String {
    let mut out = String::new();
    for (label, program) in builds {
        let _ = writeln!(out, "{label} {:#018x}", program_fingerprint(program));
    }
    for name in CONFIG_NAMES {
        let config = config_by_name(name).expect("catalog names resolve");
        let _ = writeln!(out, "config {name} {:#018x}", config_fingerprint(&config));
    }
    let _ = writeln!(out, "catalog {:#018x}", catalog_fingerprint());
    out
}

#[test]
fn fingerprints_match_the_golden_file() {
    let got = render(&workload_builds());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fingerprints.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(
            g, w,
            "fingerprint drifted (regenerate only for an intended encoding change)"
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "golden file has a different row count"
    );
}

/// The program fingerprint hashes instructions through their binary
/// encoding, so it identifies a program only if that encoding is
/// lossless. Check it on every instruction the workloads and 200 fuzz
/// programs contain.
#[test]
fn encoding_is_lossless_on_every_workload_and_fuzz_instruction() {
    let fuzz = (0..200u64).map(|seed| {
        let program = assemble_and_link(
            &fuzz_source(seed),
            &format!("fuzz{seed}"),
            &SoftwareSupport::on(),
        )
        .expect("fuzz programs always link");
        (format!("fuzz seed {seed}"), program)
    });
    let mut checked = 0usize;
    for (label, program) in workload_builds().into_iter().chain(fuzz) {
        for (i, insn) in program.text.iter().enumerate() {
            let word = fac_isa::encode(insn);
            assert_eq!(
                fac_isa::decode(word).as_ref(),
                Ok(insn),
                "{label}: insn {i} ({insn}) word {word:#010x}"
            );
        }
        checked += program.text.len();
    }
    assert!(checked > 10_000, "only {checked} instructions checked");
}

/// A one-byte data change or a one-instruction text change moves the
/// fingerprint of a real workload build.
#[test]
fn one_byte_or_one_instruction_changes_a_workload_fingerprint() {
    let workload = fac_workloads::find("compress").unwrap();
    let base = workload.build(&SoftwareSupport::on(), Scale::Smoke);
    let fp = program_fingerprint(&base);
    let blob = base
        .data
        .iter()
        .position(|b| !b.bytes.is_empty())
        .expect("compress has data");
    for at in [
        0,
        base.data[blob].bytes.len() / 2,
        base.data[blob].bytes.len() - 1,
    ] {
        let mut p = base.clone();
        p.data[blob].bytes[at] ^= 0x80;
        assert_ne!(program_fingerprint(&p), fp, "data byte {at} of blob {blob}");
    }
    for at in [0, base.text.len() / 2, base.text.len() - 1] {
        let mut p = base.clone();
        p.text[at] = if p.text[at] == fac_isa::Insn::Nop {
            fac_isa::Insn::Halt
        } else {
            fac_isa::Insn::Nop
        };
        assert_ne!(program_fingerprint(&p), fp, "instruction {at}");
    }
}
