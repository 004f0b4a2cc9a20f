//! `serve-warm`: two clients, one per tenant, send one-request
//! sessions to a shared warm `ServeCore`.

use std::collections::HashMap;
use std::io::Cursor;
use std::sync::Mutex;
use std::time::Instant;

use parfait_pipeline::serve::server::handle_session;
use parfait_pipeline::{CertCache, ServeCore};
use parfait_telemetry::json::{parse, Json};
use parfait_telemetry::Telemetry;

use crate::gen::{serve_round, Rng, SERVE_CELLS};
use crate::layers::Tracer;
use crate::{snapshot, Ctx, Outcome, Sample};

/// Requests per cell per client per round.
const COPIES: usize = 16;
/// One round: 2 clients × 4 cells × 16 copies, ~6 ms per request.
pub const NOMINAL_ROUND_S: f64 = 0.4;

const TENANTS: [&str; 2] = ["alpha", "beta"];
/// The scheduler's thread budget; with two clients at most two
/// threads are busy.
const SCHED_THREADS: usize = 1;

fn request(id: &str, tenant: &str, cell: usize) -> String {
    let (app, cpu) = SERVE_CELLS[cell];
    format!(
        r#"{{"op":"verify","id":"{id}","tenant":"{tenant}","app":"{app}","cpu":"{cpu}","opt":"-O2"}}"#
    ) + "\n"
}

/// Run one session; its raw output.
fn session(core: &ServeCore, lines: &str) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    handle_session(core, Cursor::new(lines.as_bytes()), &mut out).map_err(|e| e.to_string())?;
    Ok(out)
}

fn frames(raw: Vec<u8>) -> Result<Vec<Json>, String> {
    String::from_utf8(raw)
        .map_err(|e| e.to_string())?
        .lines()
        .map(|l| parse(l).map_err(|e| format!("bad frame {l:?}: {e}")))
        .collect()
}

fn field<'a>(frame: &'a Json, key: &str) -> Option<&'a str> {
    frame.get(key).and_then(Json::as_str)
}

/// A request's frames must be its `queued` status then its result,
/// fully cached and composing to the setup's certificate.
fn check(frames: &[Json], id: &str, want: &str) -> Result<(), String> {
    let [status, result] = frames else {
        return Err(format!("{id}: {} frames, want status + result", frames.len()));
    };
    if field(status, "frame") != Some("status") || field(status, "id") != Some(id) {
        return Err(format!("{id}: unexpected frame {status}"));
    }
    if field(result, "frame") != Some("result") || field(result, "id") != Some(id) {
        return Err(format!("{id}: unexpected frame {result}"));
    }
    if result.get("cached") != Some(&Json::Bool(true)) {
        return Err(format!("{id}: warm request ran a stage"));
    }
    match result.get("composed") {
        Some(c) if c.to_string() == want => Ok(()),
        _ => Err(format!("{id}: composed certificate differs from the cold result")),
    }
}

/// Cold-fill both tenants, one client thread per tenant, and return
/// each (tenant, cell)'s composed certificate.
fn cold_fill(core: &ServeCore) -> Result<HashMap<(usize, usize), String>, String> {
    let results = std::thread::scope(|s| {
        let clients: Vec<_> = (0..TENANTS.len())
            .map(|t| {
                s.spawn(move || {
                    let lines: String = (0..SERVE_CELLS.len())
                        .map(|c| request(&format!("cold-{c}"), TENANTS[t], c))
                        .collect();
                    session(core, &lines).and_then(frames)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect::<Vec<_>>()
    });
    let mut composed = HashMap::new();
    for (t, frames) in results.into_iter().enumerate() {
        for frame in frames? {
            match field(&frame, "frame") {
                Some("status") => {}
                Some("result") => {
                    let id = field(&frame, "id").unwrap_or_default();
                    let c: usize =
                        id.trim_start_matches("cold-").parse().map_err(|_| id.to_string())?;
                    let cert = frame.get("composed").ok_or("result without certificate")?;
                    composed.insert((t, c), cert.to_string());
                }
                _ => return Err(format!("cold fill: {frame}")),
            }
        }
    }
    if composed.len() != TENANTS.len() * SERVE_CELLS.len() {
        return Err(format!("cold fill answered {} of 8 cells", composed.len()));
    }
    Ok(composed)
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome {
        thread_budget: format!(
            "{} client threads; scheduler at {SCHED_THREADS} thread",
            TENANTS.len()
        ),
        ..Outcome::default()
    };

    // Setup: the cold fill of both tenants through the daemon into a
    // fresh cache; the warm core then serves the timed rounds.
    let mut cal = out.host.settle();
    let t0 = Instant::now();
    let core =
        ServeCore::new(CertCache::at(ctx.dir("cache")), Telemetry::disabled(), SCHED_THREADS);
    let filled = cold_fill(&core);
    let s = t0.elapsed().as_secs_f64();
    let factor = out.host.next_factor(&mut cal);
    let reference = match filled {
        Ok(reference) => reference,
        Err(e) => {
            out.fail(format!("setup: {e}"));
            return out;
        }
    };
    out.setup.push((s, factor));

    let mut rngs: Vec<Rng> = (0..TENANTS.len() as u64)
        .map(|t| Rng::new(ctx.seed.wrapping_mul(31).wrapping_add(t)))
        .collect();
    let samples = Mutex::new(Vec::new());
    for round in 0..ctx.rounds {
        let traced = ctx.traced_round(round);
        let lists: Vec<Vec<usize>> = rngs.iter_mut().map(|r| serve_round(r, COPIES)).collect();
        let before = traced.then(snapshot);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for (t, list) in lists.iter().enumerate() {
                let (core, reference, samples) = (&core, &reference, &samples);
                s.spawn(move || {
                    let mut mine = Vec::with_capacity(list.len());
                    for (i, &cell) in list.iter().enumerate() {
                        let id = format!("r{round}-c{t}-{i}");
                        let line = request(&id, TENANTS[t], cell);
                        let a = Instant::now();
                        let raw = session(core, &line);
                        let b = Instant::now();
                        if traced {
                            let op = (round * TENANTS.len() + t) * list.len() + i;
                            tracer.record("serve.session", op as u64, None, a, b);
                        }
                        let ok = raw
                            .and_then(frames)
                            .and_then(|f| check(&f, &id, &reference[&(t, cell)]));
                        mine.push(((b - a).as_secs_f64() * 1e3, ok));
                    }
                    samples.lock().expect("sample store poisoned").extend(mine);
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        if let Some(before) = before {
            out.delta.add(&before, &snapshot());
        }
        let factor = out.host.next_factor(&mut cal);
        if !traced {
            out.untraced_wall_s += wall * factor;
        }
        for (ms, ok) in samples.lock().expect("sample store poisoned").drain(..) {
            if let Err(e) = &ok {
                out.fail(e.clone());
            }
            out.samples.push(Sample { ms, factor, ok: ok.is_ok(), traced });
        }
    }
    // Every timed request was checked to be fully cached.
    out.stages.add_all_hits(&out.delta);
    out
}
