//! The served sweep: an in-process campaign server on a Unix socket with
//! a fresh store, driven by one client connection in a closed loop (each
//! request is sent when the previous response has arrived).

use crate::expected::{config, CONFIGS};
use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::{Cx, Rep};
use fac_bench::serve::client::{cell_request, Client};
use fac_bench::serve::proto::{
    parse_request, parse_response, render_request, render_response, CellRequest, Request, Response,
};
use fac_bench::serve::server::{ServeOptions, Server};
use fac_bench::serve::store::{Lookup, Store};
use fac_bench::serve::Endpoint;
use fac_sim::obs::Json;
use fac_sim::{config_fingerprint, program_fingerprint};
use fac_workloads::Scale;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Timed rounds of the store, protocol and fingerprint replays after a
/// traced served pass.
const REPLAY_ROUNDS: usize = 5;

/// One cell of the served grid and what the sweeps saw of it.
struct Cell {
    p: usize,
    c: usize,
    label: String,
    key: u64,
    request: Option<CellRequest>,
    /// The cold (miss) result document, rendered.
    cold: Option<String>,
    /// The last cached response, replayed through the protocol.
    last_hit: Option<Response>,
    /// Client-observed latency of each hit, microseconds.
    hit_us: Vec<f64>,
}

/// Binds a campaign server on a Unix socket with a fresh store, both
/// under `dir`.
fn bind(dir: &Path) -> Result<Server, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    Server::bind(
        &Endpoint::Unix(dir.join("s.sock")),
        ServeOptions::new(dir.join("store")),
    )
    .map_err(|e| e.to_string())
}

/// Binds a server under `dir` and drops it: the served part of set-up.
pub fn bind_once(dir: &Path) -> Result<(), String> {
    drop(bind(dir)?);
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())
}

/// One served repetition over `programs` × both configurations: a cold
/// sweep (every cell a miss that simulates and commits), then cached
/// sweeps until at least `min_hits` hits. With a tracer, spans wrap
/// every `cell_request` and RPC, and the store, protocol and fingerprint
/// calls of each cell are replayed afterwards to split hit latency.
pub fn served(
    cx: &mut Cx,
    rng: &mut Rng,
    programs: &[usize],
    min_hits: usize,
    mut t: Option<&mut Tracer>,
) -> Rep {
    let dir = cx.scratch_dir("serve");
    let server = match bind(&dir) {
        Ok(server) => server,
        Err(e) => {
            cx.tally.error("served: bind", &e);
            return Rep::default();
        }
    };
    let endpoint = server.endpoint();
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run());

    let mut cells: Vec<Cell> = programs
        .iter()
        .flat_map(|&p| (0..CONFIGS.len()).map(move |c| (p, c)))
        .map(|(p, c)| Cell {
            p,
            c,
            label: format!("{}/{}", cx.programs[p].name, CONFIGS[c]),
            key: 0,
            request: None,
            cold: None,
            last_hit: None,
            hit_us: Vec::new(),
        })
        .collect();
    let rep = match Client::connect(&endpoint, Duration::from_secs(600)) {
        Ok(mut client) => drive(cx, rng, &mut client, &mut cells, min_hits, t.as_deref_mut()),
        Err(e) => {
            cx.tally.error("served: connect", &e);
            Rep::default()
        }
    };
    shutdown.trigger();
    match handle.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => cx.tally.error("served: server", &e),
        Err(_) => cx.tally.error("served: server", &"server thread panicked"),
    }
    if let Some(t) = t {
        replay(cx, t, &dir, &cells);
    }
    std::fs::remove_dir_all(&dir).ok();
    rep
}

fn drive(
    cx: &mut Cx,
    rng: &mut Rng,
    client: &mut Client,
    cells: &mut [Cell],
    min_hits: usize,
    mut t: Option<&mut Tracer>,
) -> Rep {
    let mut rep = Rep::default();
    let start = Instant::now();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    rng.shuffle(&mut order);
    for &i in &order {
        let cell = &mut cells[i];
        let (resp, lat) = rpc(cx, client, cell, t.as_deref_mut(), "serve.rpc_miss");
        rep.miss_ms.push(lat.as_secs_f64() * 1e3);
        let bad = match resp {
            Ok(Response::Cell {
                key,
                cached: false,
                coalesced: false,
                result,
                ..
            }) => {
                rep.sim_insts += result.get("insts").and_then(Json::as_u64).unwrap_or(0);
                cell.key = key;
                cell.cold = Some(result.to_string());
                cx.tally.show(&cell.label, format_args!("{result}"));
                cx.expected
                    .served(cx.programs[cell.p].name, cell.c, &result)
            }
            other => vec![format!(
                "cold request: expected a fresh miss, got {other:?}"
            )],
        };
        if let Some(t) = t.as_deref_mut() {
            t.count(
                if bad.is_empty() {
                    "serve.misses"
                } else {
                    "serve.failed"
                },
                1,
            );
        }
        cx.tally.record(&cell.label, bad);
    }
    rep.sim_s = start.elapsed().as_secs_f64();

    let mut attempted = 0;
    while attempted < min_hits {
        let sweep = Instant::now();
        let mut sweep_us = Vec::new();
        rng.shuffle(&mut order);
        for &i in &order {
            let cell = &mut cells[i];
            let (resp, lat) = rpc(cx, client, cell, t.as_deref_mut(), "serve.rpc_hit");
            attempted += 1;
            let bad = match resp {
                Ok(Response::Cell {
                    cached: true,
                    ref result,
                    ..
                }) => {
                    let us = lat.as_secs_f64() * 1e6;
                    cell.hit_us.push(us);
                    rep.cell_us.push(us);
                    sweep_us.push(us);
                    let hit = result.to_string();
                    let same = cell.cold.as_deref() == Some(hit.as_str());
                    cell.last_hit = resp.ok();
                    if same {
                        vec![]
                    } else {
                        vec![format!("cached result {hit} differs from the cold one")]
                    }
                }
                other => vec![format!("expected a cache hit, got {other:?}")],
            };
            if let Some(t) = t.as_deref_mut() {
                t.count(
                    if bad.is_empty() {
                        "serve.hits"
                    } else {
                        "serve.failed"
                    },
                    1,
                );
            }
            cx.tally.record(&cell.label, bad);
        }
        rep.sweep_ms.push(sweep.elapsed().as_secs_f64() * 1e3);
        if !sweep_us.is_empty() {
            rep.sweep_p50_us.push(median(&sweep_us));
        }
    }
    rep.wall_s = start.elapsed().as_secs_f64();
    rep
}

/// Builds the cell's request the way the campaign client does (building
/// and fingerprinting the program) and sends it. Returns the response and
/// the RPC latency, which excludes the request build.
fn rpc(
    cx: &Cx,
    client: &mut Client,
    cell: &mut Cell,
    mut t: Option<&mut Tracer>,
    span: &'static str,
) -> (Result<Response, fac_sim::SimError>, Duration) {
    let id = t.as_deref_mut().map(|t| t.cell(cell.label.clone()));
    let began = Instant::now();
    let req = cell_request(cx.programs[cell.p].name, CONFIGS[cell.c], Scale::Paper);
    if let (Some(t), Some(id)) = (t.as_deref_mut(), id) {
        t.span("serve.cell_request", id, began, 1);
    }
    let sent = Instant::now();
    let resp = client.rpc(&Request::Cell(req.clone()));
    let lat = sent.elapsed();
    if let (Some(t), Some(id)) = (t, id) {
        t.span(span, id, sent, 1);
    }
    cell.request = Some(req);
    (resp, lat)
}

/// Times, per cell, the calls a hit makes on the server and the client:
/// `Store::get` on the populated store, protocol render and parse of the
/// request and response, and both fingerprints; then `Store::put` into a
/// second store. The median of what each hit's latency has left over is
/// queueing, socket and lock wait: `serve.server_other_us`.
fn replay(cx: &mut Cx, t: &mut Tracer, dir: &Path, cells: &[Cell]) {
    let store = match Store::open(&dir.join("store")) {
        Ok(s) => s,
        Err(e) => return cx.tally.error("served: reopen store", &e),
    };
    let mut other_us = Vec::new();
    for cell in cells {
        let (Some(req), Some(hit)) = (&cell.request, &cell.last_hit) else {
            continue;
        };
        let id = t.cell(format!("replay/{}", cell.label));
        let program = &cx.programs[cell.p].program;
        let mut parts: [Vec<f64>; 4] = Default::default();
        // Round 0 is untimed: it warms the caches the server's hit path
        // runs with.
        for round in 0..=REPLAY_ROUNDS {
            let timed = round > 0;
            let began = Instant::now();
            let got = store.get(cell.key);
            if timed {
                parts[0].push(t.span("serve.store_get", id, began, 1));
            }
            if !matches!(got, Ok(Lookup::Hit(_))) {
                cx.tally
                    .record(&cell.label, vec![format!("store lost the entry: {got:?}")]);
            }
            let began = Instant::now();
            let line = render_request(&Request::Cell(req.clone()));
            black_box(parse_request(&line).ok());
            let line = render_response(hit);
            black_box(parse_response(&line).ok());
            if timed {
                parts[1].push(t.span("serve.proto", id, began, 1));
            }
            let began = Instant::now();
            black_box(config_fingerprint(&config(cell.c)));
            if timed {
                parts[2].push(t.span("serve.config_fingerprint", id, began, 1));
            }
            let began = Instant::now();
            black_box(program_fingerprint(program));
            if timed {
                parts[3].push(t.span("serve.program_fingerprint", id, began, 1));
            }
        }
        let parts_us = parts.iter().map(|p| median(p)).sum::<f64>() / 1e3;
        other_us.extend(cell.hit_us.iter().map(|lat| lat - parts_us));
    }
    if !other_us.is_empty() {
        t.server_other_us = Some(median(&other_us));
    }

    let puts = match Store::open(&dir.join("put")) {
        Ok(s) => s,
        Err(e) => return cx.tally.error("served: open put store", &e),
    };
    for cell in cells {
        let Some(Response::Cell { key, result, .. }) = &cell.last_hit else {
            continue;
        };
        let id = t.cell(format!("replay/{}", cell.label));
        let began = Instant::now();
        let put = puts.put(*key, result);
        t.span("serve.store_put", id, began, 1);
        if let Err(e) = put {
            cx.tally.error(&cell.label, &e);
        }
    }
}
