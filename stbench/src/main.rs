//! The ST-TCP benchmark: one workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path stbench/Cargo.toml -- \
//!     --workload ramp10k|active2k|bulk256m --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` repeats the workload for up to `S` wall seconds and prints
//! the end-to-end metrics (wall-clock ones put on one memory-speed scale,
//! see [`memref`], and taken from the fastest repetition of each stretch
//! of the script, see [`fastest_slices`]; virtual-time ones, which must
//! repeat exactly, once).
//! `--trace 1` runs it once untraced and once with the world's profiler
//! on, times the wire codecs, and prints the per-layer metrics and the
//! tracing overhead. The last stdout line is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod alloc;
mod app;
mod codec;
mod derive;
mod memref;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use memref::MemRef;
use workload::{Plan, Rep, Script, Workload, PHASES};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Fewest untraced repetitions.
const MIN_REPS: usize = 3;
/// Share of each repetition's run time spent on extra runs of the same
/// script stopped after the ramp, so `setup_s` and `ramp_conns_per_s` get
/// more samples where both are short (in practice only `bulk256m`'s
/// two-connection ramp).
const PROBE_SHARE: f64 = 0.1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
    })
}

/// How the wall-clock metrics are taken, printed beside them.
const WALL_NOTE: &str = "  wall-clock metrics: the wall time of each 20 ms slice of virtual time \
    is multiplied by 50 ns / the median access time the memory reference read after the 51 \
    slices around it, putting it on the scale of a host whose memory answers the reference in \
    50 ns. run_s and the ramp time behind ramp_conns_per_s sum, slice by slice, the fastest \
    scaled time any run took for that slice; setup_s is the median over runs of the set-up \
    scaled like the first slice. The reference shares caches and memory with the simulation, \
    so it reads slower when the simulation loads them too (about 20-30 ns beside bulk256m, \
    35-55 ns beside ramp10k and active2k): a change in the simulation's own memory traffic \
    shows in these metrics less than in raw wall time.";

/// Sums, slice by slice, the fastest time any of `runs` took for that
/// slice. Every run of one seed simulates the same slices, and on a
/// shared machine each run is slowed at other moments, so the sum
/// estimates the run with the machine to itself.
fn fastest_slices<'a>(runs: impl Iterator<Item = &'a [f64]>) -> f64 {
    let mut best: Vec<f64> = Vec::new();
    for slices in runs {
        if best.is_empty() {
            best = slices.to_vec();
        }
        for (b, &w) in best.iter_mut().zip(slices) {
            *b = b.min(w);
        }
    }
    best.iter().sum()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The metrics of one invocation, in print order.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Prints the table, then the one-line JSON summary last.
    fn emit(&self, correct: bool, attempted: u64, failed: u64) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {value:>16.4} {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        );
    }
}

/// Prints the outcome oracle's tally and returns whether the run is
/// correct: nothing failed, every phase completed and the codecs
/// round-trip.
fn check(plan: &Plan, rep: &Rep) -> bool {
    let o = &rep.outcome;
    println!(
        "{:?} seed {}: {} connections, {} operations attempted, {} failed, fail_frac {}",
        plan.workload,
        plan.seed,
        plan.conns(),
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    for note in &o.notes {
        println!("  failure: {note}");
    }
    let codecs = codec::round_trips_hold();
    if !codecs {
        println!("  failure: a wire codec no longer round-trips");
    }
    o.failed == 0 && o.phases_completed && codecs
}

/// What `heap_bytes_per_conn` holds, printed beside it.
const HEAP_NOTE: &str = "  heap_bytes_per_conn: the run's live-heap peak minus what set-up left \
    live, / connections. Set-up heap (mostly client hosts, see apps.setup_heap_per_host) is \
    left out; the client hosts' own per-connection TCP state and logs, allocated during the \
    run, are counted in, so the figure is system plus harness memory.";

fn ms_or_zero(us: Option<u64>) -> f64 {
    us.map_or(0.0, |us| us as f64 / 1e3)
}

fn untraced(plan: &Plan, seconds: f64) -> ExitCode {
    let mut mem = MemRef::new();
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut probes: Vec<Rep> = Vec::new();
    loop {
        // Start another repetition only if one more, at the pace so far,
        // ends within `seconds`.
        let elapsed = started.elapsed().as_secs_f64();
        if reps.len() >= MIN_REPS && elapsed * (reps.len() + 1) as f64 / reps.len() as f64 > seconds
        {
            break;
        }
        let rep = workload::run(plan, false, Script::Whole, &mut mem);
        let n = PROBE_SHARE * rep.run_s() / (rep.setup_s + rep.phase_s[0]);
        for _ in 0..n as usize {
            probes.push(workload::run(plan, false, Script::RampOnly, &mut mem));
        }
        reps.push(rep);
    }
    // Every run, whole or ramp-only, gives a set-up and a ramp sample.
    let ramps = || reps.iter().chain(&probes);
    let first = &reps[0];
    let mut correct = check(plan, first);
    if reps.iter().any(|r| {
        r.virt != first.virt || r.outcome != first.outcome || r.slices.len() != first.slices.len()
    }) || ramps()
        .any(|r| r.ramp_slices != first.ramp_slices || r.live_after_ramp != first.live_after_ramp)
    {
        println!("  failure: virtual-time results differ between repetitions of one seed");
        correct = false;
    }
    let v = &first.virt;
    let (stall, req) = (&v.stall, &v.req);
    for (what, s) in [("stall", stall), ("request latency", req)] {
        if let Some(s) = s {
            let tail = s.tail.map_or("none".to_string(), |(q, ms)| {
                format!("p{} = {ms} ms", q * 100.0)
            });
            println!(
                "  {what}: n = {}, p50 {} ms, p99 {} ms, max {} ms; highest percentile with 10 samples beyond: {tail}",
                s.n, s.p50_ms, s.p99_ms, s.max_ms
            );
        }
    }
    println!(
        "  rejoin: warm reboot -> reintegrated in {} ms (redundancy_ms; a per-layer metric, \
         since it lands on the joiner's 50 ms check ticks and moves with the seed)",
        ms_or_zero(v.redundancy_us)
    );
    let list = |v: Vec<f64>| {
        let strs: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
        format!("{} (median {:.3})", strs.join(" "), median(v))
    };
    println!(
        "  {} repetitions and {} ramp-only runs in {:.1} s",
        reps.len(),
        probes.len(),
        started.elapsed().as_secs_f64()
    );
    let fastest_run = fastest_slices(reps.iter().map(|r| &r.slices[..]));
    let fastest_ramp = fastest_slices(ramps().map(|r| &r.slices[..r.ramp_slices]));
    println!(
        "  per repetition: wall run_s {}; reference ns/access {}; scaled run_s {}; \
         per-slice fastest scaled {fastest_run:.3}",
        list(reps.iter().map(Rep::run_s).collect()),
        list(reps.iter().map(|r| r.mem_ns).collect()),
        list(reps.iter().map(|r| r.slices.iter().sum()).collect()),
    );
    println!("{WALL_NOTE}");
    println!("{HEAP_NOTE}");

    let conns = plan.conns() as f64;
    let mut r = Report::default();
    r.put(
        "setup_s",
        median(ramps().map(|r| r.setup_s * r.setup_scale).collect()),
        "s",
    );
    r.put("run_s", fastest_run, "s");
    r.put(
        "ramp_conns_per_s",
        first.live_after_ramp as f64 / fastest_ramp,
        "1/s",
    );
    r.put(
        "heap_bytes_per_conn",
        median(
            reps.iter()
                .map(|r| r.run_heap_peak as f64 / conns)
                .collect(),
        ),
        "bytes",
    );
    r.put("hb_bytes_per_conn", v.hb_bytes_per_conn, "bytes");
    r.put("takeover_ms", ms_or_zero(v.takeover_us), "ms");
    r.put(
        "stall_p50_ms",
        stall.as_ref().map_or(0.0, |s| s.p50_ms),
        "ms",
    );
    r.put(
        "stall_p99_ms",
        stall.as_ref().map_or(0.0, |s| s.p99_ms),
        "ms",
    );
    r.put("req_p50_ms", req.as_ref().map_or(0.0, |s| s.p50_ms), "ms");
    r.put("req_p99_ms", req.as_ref().map_or(0.0, |s| s.p99_ms), "ms");
    r.put("goodput_mbps", v.goodput_mbps, "Mbit/s");
    let o = &first.outcome;
    r.put(
        "ok_frac",
        (o.attempted - o.failed) as f64 / o.attempted.max(1) as f64,
        "frac",
    );
    r.emit(correct, o.attempted, o.failed);
    ExitCode::SUCCESS
}

fn traced(plan: &Plan) -> ExitCode {
    let mut mem = MemRef::new();
    let plain = workload::run(plan, false, Script::Whole, &mut mem);
    let rep = workload::run(plan, true, Script::Whole, &mut mem);
    let mut correct = check(plan, &rep);
    if rep.virt != plain.virt {
        println!("  failure: the profiler changed virtual-time results");
        correct = false;
    }
    let l = &rep.layers;
    let self_ms = |key: &str| {
        l.self_ms
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |&(_, v)| v)
    };
    let total_self: f64 = l.self_ms.iter().map(|&(_, v)| v).sum();
    println!(
        "  notes: client hosts are the harness; their TCP stacks profile into `tcp`, not `app`, \
         so apps.self_share is a partial harness/system split. The event queue and the TCP \
         deadline wheel are crate-private: only the simnet and tcp_wheel buckets cover them."
    );
    println!("{HEAP_NOTE}");

    let mut r = Report::default();
    r.put(
        "trace.overhead",
        rep.slices.iter().sum::<f64>() / plain.slices.iter().sum::<f64>(),
        "x",
    );
    r.put("redundancy_ms", ms_or_zero(rep.virt.redundancy_us), "ms");
    r.put("simnet.events", l.events as f64, "count");
    r.put(
        "simnet.events_per_conn",
        l.events as f64 / plan.conns() as f64,
        "count",
    );
    r.put("simnet.self_ms", self_ms("simnet"), "ms");
    for (name, s) in PHASES.iter().zip(rep.phase_s) {
        r.put(format!("simnet.run_until.{name}_s"), s, "s");
    }
    r.put("simnet.link_frames", l.link_frames as f64, "count");
    r.put("simnet.serial_bytes", l.serial_bytes as f64, "bytes");
    r.put("simnet.link_drops", l.link_drops as f64, "count");
    r.put("tcp.self_ms", self_ms("tcp"), "ms");
    r.put("tcp_wheel.self_ms", self_ms("tcp_wheel"), "ms");
    r.put("tcp_poll.self_ms", self_ms("tcp_poll"), "ms");
    r.put("tcp.segs_in", l.tcp.segs_in as f64, "count");
    r.put("tcp.segs_out", l.tcp.segs_out as f64, "count");
    r.put(
        "tcp.bytes_retransmitted",
        l.tcp.bytes_retransmitted as f64,
        "bytes",
    );
    r.put("tcp.rto_fires", l.tcp.rto_fires as f64, "count");
    r.put("core.self_ms", self_ms("sttcp"), "ms");
    r.put("hb_encode.self_ms", self_ms("hb_encode"), "ms");
    r.put("core.hb.rounds", l.hb.rounds as f64, "count");
    r.put("core.hb.frames", l.hb.frames as f64, "count");
    r.put("core.hb.conn_entries", l.hb.conn_entries as f64, "count");
    r.put("core.hb.payload_bytes", l.hb.payload_bytes as f64, "bytes");
    r.put("core.hb.framing_bytes", l.hb.framing_bytes as f64, "bytes");
    r.put("core.hold_high_water", l.hold_high_water as f64, "bytes");
    r.put("core.fetch_bytes", l.fetch_bytes as f64, "bytes");
    r.put("core.replay_bytes", l.replay_bytes as f64, "bytes");
    r.put("core.verdicts", l.verdicts as f64, "count");
    r.put("apps.self_ms", self_ms("app"), "ms");
    r.put("apps.self_share", self_ms("app") / total_self, "frac");
    r.put(
        "apps.setup_heap_per_host",
        rep.setup_heap as f64 / rep.hosts as f64,
        "bytes",
    );
    r.put("heap.setup_bytes", rep.setup_heap as f64, "bytes");
    r.put(
        "heap.peak_bytes",
        (rep.setup_heap + rep.run_heap_peak) as f64,
        "bytes",
    );
    for (name, ns) in codec::timings() {
        r.put(name, ns, "ns");
    }
    r.emit(correct, rep.outcome.attempted, rep.outcome.failed);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stbench: {e}");
            eprintln!(
                "usage: stbench --workload ramp10k|active2k|bulk256m --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed);
    if args.trace {
        traced(&plan)
    } else {
        untraced(&plan, args.seconds)
    }
}
