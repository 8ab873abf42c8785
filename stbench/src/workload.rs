//! The three workloads and the script each of them runs:
//!
//! 1. **ramp**: clients connect 1 ms apart, then 500 ms settle;
//! 2. **steady**: 1 s with every connection up; heartbeat cost is
//!    sampled and every connection is checked on both replicas;
//! 3. **transfer**, first part: up to the crash, which comes right after
//!    the steady window, or after the download in `bulk256m`;
//! 4. **failover**: the primary crashes; runs until the backup has taken
//!    over and every client the crash hit has received a byte again;
//! 5. **rejoin**: the crashed primary warm-reboots 2 s after the crash;
//!    runs until the active replica has it back as its backup;
//! 6. **transfer**, rest: runs until every active client finished.
//!
//! Every workload runs the whole script so that every end-to-end metric
//! is measured on every workload. The system is driven only through
//! public functions, and each layer is timed from outside, around those
//! calls. After every slice of virtual time the [`MemRef`] reference is
//! ticked, so that each slice's wall time can be put on one memory-speed
//! scale. Clients are open loop: a `ReqResp` client sends on its own
//! timer whether or not replies arrive.

use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Instant;

use simnet::link::{LinkDir, LinkId, LinkParams};
use simnet::node::NodeId;
use simnet::profile::Component;
use simnet::serial::{SerialDir, SerialId};
use simnet::time::{SimDuration, SimTime};
use simtcp::conn::ConnStats;
use simtcp::socket::FourTuple;
use sttcp::config::StTcpConfig;
use sttcp::events::FailureReason;
use sttcp::heartbeat::conn_key;
use sttcp::metrics::HbBandwidth;
use sttcp::server::StTcpServer;
use sttcp_apps::apps::ReqRespApp;
use sttcp_apps::client::ClientWorkload;
use sttcp_apps::scenario::{AppMaker, Scenario, ScenarioBuilder};

use crate::alloc;
use crate::app::MixedApp;
use crate::derive::{request_latencies, stall_across, summarize, Summary};
use crate::memref::{self, MemRef};

/// The workloads, by the name the command line uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10,000 connections, 1 in 10 active: set-up and per-tick
    /// bookkeeping dominate, heartbeats are nearly idle.
    Ramp10k,
    /// 2,000 connections, all active: every connection is dirty every
    /// heartbeat round, and takeover and the re-integration snapshot run
    /// under full load.
    Active2k,
    /// One 256 MiB download on the default heartbeat path, fault-free,
    /// beside one request client; the failover comes after the download.
    /// Per-byte datapath costs dominate.
    Bulk256m,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ramp10k" => Some(Workload::Ramp10k),
            "active2k" => Some(Workload::Active2k),
            "bulk256m" => Some(Workload::Bulk256m),
            _ => None,
        }
    }
}

/// First client connects this long after start; client `k` connects `k`
/// ms after it.
const CONNECT_AT_US: u64 = 100_000;
/// One-way Ethernet latency of a 100 Mbit/s LAN hop, plus a seeded
/// 0-[`LATENCY_SPREAD_US`] µs, so each seed runs on a slightly different path.
const LATENCY_US: u64 = 50;
const LATENCY_SPREAD_US: u64 = 1;
/// Settling time after the last client's connect.
const SETTLE_MS: u64 = 500;
/// Steady window between the ramp and the crash.
const STEADY_MS: u64 = 1_000;
/// The crash lands up to this long after the steady window or the
/// download (seeded), so its phase against the heartbeat timers varies
/// between seeds.
const CRASH_JITTER_US: u64 = 20_000;
/// The crashed primary warm-reboots this long after the crash.
const REBOOT_AFTER_MS: u64 = 2_000;
/// Request clients keep sending until this long after the reboot, so the
/// re-integration snapshot is taken under load.
const BUSY_AFTER_REBOOT_MS: u64 = 2_000;
/// Request period of every `ReqResp` client.
const REQ_PERIOD_MS: u64 = 100;
/// Heartbeat batch size and serial link count of the scaled configuration
/// (the repository's `--scale` tier uses the same).
const HB_BATCH: usize = 1_024;
const SCALE_SERIAL_LINKS: usize = 4;
/// Bulk download size and the stream app's write per tick.
const BULK_BYTES: u64 = 256 * 1024 * 1024;
const BULK_CHUNK: usize = 64 * 1024;
/// Margin after the download's paced end before the crash.
const BULK_SLACK_MS: u64 = 1_000;

/// Phase names, in script order.
pub const PHASES: [&str; 5] = ["ramp", "steady", "failover", "rejoin", "transfer"];
/// Virtual time the world advances per timed `run_until` call.
const SLICE: SimDuration = SimDuration::from_millis(20);

/// SplitMix64: the benchmark's only source of seeded choices.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything one workload run is made of, derived from the seed.
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The seed the plan was made from.
    pub seed: u64,
    /// One workload per client host, the gateway client first.
    clients: Vec<ClientWorkload>,
    sttcp: StTcpConfig,
    serial_links: usize,
    link_latency: SimDuration,
    /// `Some(chunk)`: a [`MixedApp`] streaming downloads at `chunk` per
    /// tick; `None`: a [`ReqRespApp`].
    stream_chunk: Option<usize>,
    ramp_end: SimTime,
    steady_end: SimTime,
    crash_at: SimTime,
    reboot_at: SimTime,
    horizon: SimTime,
}

impl Plan {
    /// Makes the plan for `workload` from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let conns: u64 = match workload {
            Workload::Ramp10k => 10_000,
            Workload::Active2k => 2_000,
            Workload::Bulk256m => 2,
        };
        let link_latency = LATENCY_US + mix(seed, 0x1a7) % (LATENCY_SPREAD_US + 1);
        let ramp_end = SimTime::from_micros(CONNECT_AT_US + (conns + SETTLE_MS) * 1_000);
        let steady_end = ramp_end + SimDuration::from_millis(STEADY_MS);
        // The download is paced at one chunk per application tick; the
        // crash comes after it, so the transfer itself runs fault-free.
        let quiet_from = match workload {
            Workload::Bulk256m => {
                let ticks = BULK_BYTES.div_ceil(BULK_CHUNK as u64);
                let paced = StTcpConfig::default().app_tick.saturating_mul(ticks);
                steady_end.max(
                    SimTime::from_micros(CONNECT_AT_US)
                        + paced
                        + SimDuration::from_millis(BULK_SLACK_MS),
                )
            }
            _ => steady_end,
        };
        let crash_at = quiet_from + SimDuration::from_micros(mix(seed, 0xc4a5) % CRASH_JITTER_US);
        let reboot_at = crash_at + SimDuration::from_millis(REBOOT_AFTER_MS);
        // Request clients stop sending at about the same instant whenever
        // they connected: client k (connecting at CONNECT_AT_US + k ms) sends
        // ceil((busy_until - connect) / period) requests.
        let busy_until = quiet_from.as_micros() + (REBOOT_AFTER_MS + BUSY_AFTER_REBOOT_MS) * 1_000;
        let req = |k: u64| ClientWorkload::ReqResp {
            period: SimDuration::from_millis(REQ_PERIOD_MS),
            count: (busy_until - CONNECT_AT_US - k * 1_000).div_ceil(REQ_PERIOD_MS * 1_000) as u32,
        };
        let scaled = StTcpConfig {
            hb_delta: true,
            hb_batch: HB_BATCH,
            reintegrate: true,
            ..StTcpConfig::default()
        };
        let (clients, sttcp, serial_links, stream_chunk) = match workload {
            // Exactly one active client per block of ten, at a seeded slot
            // (block salts sit above the other draws' salts).
            Workload::Ramp10k => (
                (0..conns)
                    .map(|k| {
                        if k % 10 == mix(seed, (1 << 32) + k / 10) % 10 {
                            req(k)
                        } else {
                            ClientWorkload::Idle
                        }
                    })
                    .collect(),
                scaled,
                SCALE_SERIAL_LINKS,
                None,
            ),
            Workload::Active2k => (
                (0..conns).map(req).collect(),
                scaled,
                SCALE_SERIAL_LINKS,
                None,
            ),
            // The paper's default heartbeat (v1 full state, one serial
            // link); re-integration on so the rebooted primary rejoins. A
            // request client runs next to the download and through the
            // failover that follows it.
            Workload::Bulk256m => (
                vec![ClientWorkload::Download { total: BULK_BYTES }, req(1)],
                StTcpConfig {
                    reintegrate: true,
                    ..StTcpConfig::default()
                },
                1,
                Some(BULK_CHUNK),
            ),
        };
        Plan {
            workload,
            seed,
            clients,
            sttcp,
            serial_links,
            link_latency: SimDuration::from_micros(link_latency),
            stream_chunk,
            ramp_end,
            steady_end,
            crash_at,
            reboot_at,
            horizon: reboot_at + SimDuration::from_secs(120),
        }
    }

    /// Client hosts, one connection each.
    pub fn conns(&self) -> usize {
        self.clients.len()
    }

    fn build(&self) -> Scenario {
        let app: AppMaker = match self.stream_chunk {
            Some(chunk) => Rc::new(move || Box::new(MixedApp::new(chunk)) as _),
            None => Rc::new(|| Box::new(ReqRespApp::new()) as _),
        };
        ScenarioBuilder::new(app, self.clients[0].clone())
            .extra_clients(self.clients[1..].to_vec())
            .seed(self.seed)
            .sttcp(self.sttcp.clone())
            .serial_links(self.serial_links)
            .connect_at(SimDuration::from_micros(CONNECT_AT_US))
            .link(LinkParams::lan().with_latency(self.link_latency))
            .build()
    }

    /// The connection key each client's connection must have on both
    /// replicas. Mirrors the builder's address plan: the gateway client
    /// is `10.0.0.1`; extra client `i` is
    /// `10.(i/60000).(1+(i%60000)/240).(10+i%240)`; all use port 40000.
    fn expected_keys(&self, s: &Scenario) -> Vec<u32> {
        let a = s.addressing;
        (0..self.conns())
            .map(|k| {
                let ip = match k {
                    0 => a.client_ip,
                    _ => {
                        let i = k - 1;
                        let r = i % 60_000;
                        Ipv4Addr::new(
                            10,
                            (i / 60_000) as u8,
                            1 + (r / 240) as u8,
                            10 + (r % 240) as u8,
                        )
                    }
                };
                conn_key(FourTuple {
                    local: (a.service_ip, a.service_port),
                    remote: (ip, 40_000),
                })
            })
            .collect()
    }
}

/// Counters and wall times of one layer-attributed run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Simulation events processed.
    pub events: u64,
    /// `(profiler bucket key, self ms)` for every bucket.
    pub self_ms: Vec<(&'static str, f64)>,
    /// Frames delivered over every Ethernet link, both directions.
    pub link_frames: u64,
    /// Frames dropped on Ethernet links (loss or down).
    pub link_drops: u64,
    /// Bytes delivered over every serial heartbeat link.
    pub serial_bytes: u64,
    /// Server-side TCP counters: the primary's just before the crash plus
    /// the survivor's once the pair is whole again.
    pub tcp: ConnStats,
    /// Heartbeat traffic sent by both replicas over the run.
    pub hb: HbBandwidth,
    /// Highest hold-buffer occupancy either replica saw.
    pub hold_high_water: u64,
    /// Missed bytes served to the peer on fetch requests.
    pub fetch_bytes: u64,
    /// Bytes replayed from the hold buffer.
    pub replay_bytes: u64,
    /// Failure verdicts either replica reached.
    pub verdicts: u64,
}

/// Everything one repetition of a workload measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall s to build and start the world.
    pub setup_s: f64,
    /// The [`memref::scales`] factor of the first slice, which follows
    /// the set-up.
    pub setup_scale: f64,
    /// Wall s of each phase, in [`PHASES`] order.
    pub phase_s: [f64; 5],
    /// Wall s of each [`SLICE`] of the script, in order, scaled by
    /// [`memref::scales`]; the ramp's come first. Every repetition of a
    /// seed runs the same slices.
    pub slices: Vec<f64>,
    /// How many of `slices` the ramp took.
    pub ramp_slices: usize,
    /// Median [`MemRef`] access time over the run's slices, ns.
    pub mem_ns: f64,
    /// Connections live on the primary at the end of the ramp.
    pub live_after_ramp: usize,
    /// Heap bytes the set-up left live.
    pub setup_heap: usize,
    /// Highest live heap during the run, above what set-up left.
    pub run_heap_peak: usize,
    /// Client hosts in the world.
    pub hosts: usize,
    /// Virtual-time results: identical for every repetition of a seed.
    pub virt: Virtual,
    /// Operations attempted and failed, with the first few failures.
    pub outcome: Outcome,
    /// Layer counters (profiler buckets are zero unless traced).
    pub layers: Layers,
}

impl Rep {
    /// Wall s from the end of set-up to the end of the script.
    pub fn run_s(&self) -> f64 {
        self.phase_s.iter().sum()
    }
}

/// Results in virtual time, deterministic for a seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Virtual {
    /// Crash → survivor took over, µs.
    pub takeover_us: Option<u64>,
    /// Warm reboot → the active replica saw the rebooted node's join
    /// complete, µs. The join completes as the last snapshot lands or on
    /// one of the joiner's 50 ms check ticks after it, which one varying
    /// with the seed, so it is reported with the per-layer metrics.
    pub redundancy_us: Option<u64>,
    /// Per active client, the progress gap spanning the crash.
    pub stall: Option<Summary>,
    /// Per request, due instant → last response byte.
    pub req: Option<Summary>,
    /// Verified bytes each client received ÷ its connect-to-finish
    /// virtual time, summed over clients, Mbit/s.
    pub goodput_mbps: f64,
    /// Steady-window heartbeat bytes per round per live connection.
    pub hb_bytes_per_conn: f64,
}

/// The outcome oracle's tally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Connections, requests and transfers attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Every script phase reached its goal before its horizon.
    pub phases_completed: bool,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }
}

/// Advances the world one [`SLICE`] per `run_until` call, keeps each
/// call's wall time, then ticks the memory reference.
struct Clock<'m> {
    mem: &'m mut MemRef,
    walls: Vec<f64>,
    mem_ns: Vec<f64>,
    phase_s: [f64; 5],
}

impl Clock<'_> {
    /// Runs one slice, or up to `limit` if that is sooner, and charges
    /// its wall time to `phase` (an index into [`PHASES`]).
    fn step(&mut self, s: &mut Scenario, phase: usize, limit: SimTime) {
        let t = Instant::now();
        s.world.run_until((s.world.now() + SLICE).min(limit));
        let wall = t.elapsed().as_secs_f64();
        self.walls.push(wall);
        self.phase_s[phase] += wall;
        self.mem_ns.push(self.mem.tick());
    }

    /// The slices' wall times scaled by [`memref::scales`], the first
    /// slice's factor, and the median reference access time, ns.
    fn scaled(&self) -> (Vec<f64>, f64, f64) {
        let scales = memref::scales(&self.mem_ns);
        let slices = self.walls.iter().zip(&scales).map(|(w, k)| w * k).collect();
        let mut ns = self.mem_ns.clone();
        ns.sort_by(f64::total_cmp);
        (slices, scales[0], ns[ns.len() / 2])
    }

    /// Runs the world until `to`.
    fn advance(&mut self, s: &mut Scenario, phase: usize, to: SimTime) {
        while s.world.now() < to {
            self.step(s, phase, to);
        }
    }

    /// Runs the world until `done` holds or `horizon` passes; whether
    /// `done` held.
    fn run_while(
        &mut self,
        s: &mut Scenario,
        phase: usize,
        horizon: SimTime,
        mut done: impl FnMut(&Scenario) -> bool,
    ) -> bool {
        loop {
            if done(s) {
                return true;
            }
            if s.world.now() >= horizon {
                return false;
            }
            self.step(s, phase, horizon);
        }
    }
}

fn add_stats(sum: &mut ConnStats, s: ConnStats) {
    sum.segs_out += s.segs_out;
    sum.segs_in += s.segs_in;
    sum.bytes_sent += s.bytes_sent;
    sum.bytes_retransmitted += s.bytes_retransmitted;
    sum.rto_fires += s.rto_fires;
    sum.fast_retransmits += s.fast_retransmits;
}

fn add_hb(sum: &mut HbBandwidth, h: HbBandwidth) {
    sum.rounds += h.rounds;
    sum.frames += h.frames;
    sum.payload_bytes += h.payload_bytes;
    sum.framing_bytes += h.framing_bytes;
    sum.conn_entries += h.conn_entries;
}

fn holds_key(server: &StTcpServer, key: u32) -> bool {
    server.conn_keys().binary_search(&key).is_ok()
}

/// How much of the script [`run`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Script {
    /// Set-up and the ramp only: extra `setup_s` and `ramp_conns_per_s`
    /// samples where both are short. The other results stay empty.
    RampOnly,
    /// Every phase.
    Whole,
}

/// Runs the plan once, ticking `mem` after every slice. With `traced`,
/// the world's profiler is on.
pub fn run(plan: &Plan, traced: bool, script: Script, mem: &mut MemRef) -> Rep {
    let base_heap = alloc::live();
    let t = Instant::now();
    let mut s = plan.build();
    let setup_s = t.elapsed().as_secs_f64();
    let setup_heap = alloc::live().saturating_sub(base_heap);
    alloc::reset_peak();
    let after_setup = alloc::live();

    s.world.set_profiling(traced);
    s.crash_primary_at(plan.crash_at);
    let rebooted = s.primary;
    s.world.schedule(plan.reboot_at, move |w| {
        if !w.is_powered(rebooted) {
            w.restore_node(rebooted);
        }
    });
    let (primary, backup) = (s.primary, s.backup);
    let active: Vec<NodeId> = plan
        .clients
        .iter()
        .zip(&s.clients)
        .filter(|(w, _)| !matches!(w, ClientWorkload::Idle))
        .map(|(_, &id)| id)
        .collect();
    let mut outcome = Outcome {
        phases_completed: true,
        ..Outcome::default()
    };
    let mut clock = Clock {
        mem,
        walls: Vec::new(),
        mem_ns: Vec::new(),
        phase_s: [0.0; 5],
    };
    let mut layers = Layers::default();

    // 1. ramp
    clock.advance(&mut s, 0, plan.ramp_end);
    let ramp_slices = clock.walls.len();
    let live_after_ramp = s.server(primary).conn_keys().len();
    if script == Script::RampOnly {
        let (slices, setup_scale, mem_ns) = clock.scaled();
        return Rep {
            setup_s,
            setup_scale,
            phase_s: clock.phase_s,
            slices,
            ramp_slices,
            mem_ns,
            live_after_ramp,
            setup_heap,
            run_heap_peak: alloc::peak().saturating_sub(after_setup),
            hosts: s.clients.len(),
            virt: Virtual::default(),
            outcome: Outcome::default(),
            layers: Layers::default(),
        };
    }

    // 2. steady
    let before = s.server(primary).metrics().hb_bandwidth();
    clock.advance(&mut s, 1, plan.steady_end);
    let after = s.server(primary).metrics().hb_bandwidth();
    let rounds = after.rounds.saturating_sub(before.rounds).max(1);
    let hb_bytes_per_conn = after.total_bytes().saturating_sub(before.total_bytes()) as f64
        / rounds as f64
        / s.server(primary).conn_keys().len().max(1) as f64;

    // Oracle, before the crash: every connection mirrored exactly once.
    // A key shared by two clients means one of them has lost its
    // identity on both replicas, so both count as failed.
    let keys = plan.expected_keys(&s);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let shared = |k: u32| {
        let lo = sorted.partition_point(|&x| x < k);
        sorted.get(lo + 1) == Some(&k)
    };
    let mut conn_failed = vec![false; keys.len()];
    for (k, &key) in keys.iter().enumerate() {
        let (p, b) = (
            holds_key(s.server(primary), key),
            holds_key(s.server(backup), key),
        );
        if shared(key) || !p || !b {
            conn_failed[k] = true;
            outcome.note(format!(
                "client {k}: key {key:#010x} shared={} on primary={p} on backup={b} before the crash",
                shared(key)
            ));
        }
    }
    add_stats(&mut layers.tcp, s.server(primary).tcp_stats());

    // 3. transfer, first part: up to the crash (the whole download in
    // bulk256m)
    clock.advance(&mut s, 4, plan.crash_at);
    let crash = plan.crash_at;
    let running = |c: &NodeId| !s.finished(*c);
    let hit: Vec<bool> = s.clients.iter().map(running).collect();

    // 4. failover: every client still running when the crash hit must
    // receive a byte again.
    let mut waiting: Vec<NodeId> = active.iter().copied().filter(running).collect();
    let ok = clock.run_while(&mut s, 2, crash + SimDuration::from_secs(30), |s| {
        waiting.retain(|&c| s.log_of(c).progress.last().is_none_or(|&(t, _)| t <= crash));
        waiting.is_empty() && s.server(backup).took_over_at().is_some()
    });
    if !ok {
        outcome.phases_completed = false;
        outcome.note(format!(
            "failover: {} active clients without progress, took over: {:?}",
            waiting.len(),
            s.server(backup).took_over_at()
        ));
    }
    for (k, &key) in keys.iter().enumerate() {
        if hit[k] && !holds_key(s.server(backup), key) && !conn_failed[k] {
            conn_failed[k] = true;
            outcome.note(format!(
                "client {k}: key {key:#010x} missing on the survivor"
            ));
        }
    }

    // 5. rejoin
    let ok = clock.run_while(&mut s, 3, plan.horizon, |s| {
        s.server(backup).reintegrated_at().is_some()
    });
    if !ok {
        outcome.phases_completed = false;
        outcome.note("rejoin: the pair never became whole again".into());
    }
    add_stats(&mut layers.tcp, s.server(backup).tcp_stats());

    // 6. transfer, rest: until every client finished its work
    let mut unfinished = active.clone();
    let ok = clock.run_while(&mut s, 4, plan.horizon, |s| {
        unfinished.retain(|&c| !s.finished(c));
        unfinished.is_empty()
    });
    if !ok {
        outcome.phases_completed = false;
        outcome.note(format!(
            "transfer: {} active clients unfinished",
            unfinished.len()
        ));
    }
    let run_heap_peak = alloc::peak().saturating_sub(after_setup);

    // Oracle, per client: the connection, then each request or the
    // transfer. A client that saw corrupt data or a reset fails whole.
    let mut stall = Vec::new();
    let mut req = Vec::new();
    let mut goodput_bps = 0.0;
    let took_over = s.server(backup).took_over_at();
    for (k, (w, &id)) in plan.clients.iter().zip(&s.clients).enumerate() {
        let log = s.log_of(id);
        let ops: u64 = match *w {
            ClientWorkload::ReqResp { count, .. } => 1 + u64::from(count),
            ClientWorkload::Idle => 1,
            _ => 2,
        };
        outcome.attempted += ops;
        if log.integrity_violations > 0 || log.resets > 0 {
            outcome.failed += ops;
            outcome.note(format!(
                "client {k}: {} integrity violations, {} resets",
                log.integrity_violations, log.resets
            ));
            continue;
        }
        outcome.failed += u64::from(conn_failed[k]);
        match *w {
            ClientWorkload::ReqResp { period, count } => {
                let done = request_latencies(log, period.as_micros(), count, &mut req);
                if done < count {
                    outcome.failed += u64::from(count - done);
                    outcome.note(format!("client {k}: {done} of {count} responses complete"));
                }
            }
            ClientWorkload::Download { total }
                if log.total_received != total || log.finished_at.is_none() =>
            {
                outcome.failed += 1;
                outcome.note(format!(
                    "client {k}: {} of {total} bytes",
                    log.total_received
                ));
            }
            _ => {}
        }
        if let (Some(&from), Some(to)) = (log.connects.first(), log.finished_at) {
            let secs = to.saturating_since(from).as_secs_f64();
            if secs > 0.0 {
                goodput_bps += log.total_received as f64 * 8.0 / secs;
            }
        }
        if hit[k] {
            if let Some((from, to)) = took_over.and_then(|at| stall_across(log, crash, at)) {
                stall.push(to.saturating_since(from).as_micros());
            }
        }
    }
    let virt = Virtual {
        takeover_us: took_over.map(|at| at.saturating_since(crash).as_micros()),
        // The pair is whole again once the active replica has the
        // joiner's JoinComplete: from then on it relies on a backup.
        redundancy_us: s
            .server(backup)
            .reintegrated_at()
            .map(|at| at.saturating_since(plan.reboot_at).as_micros()),
        stall: summarize(&mut stall),
        req: summarize(&mut req),
        goodput_mbps: goodput_bps / 1e6,
        hb_bytes_per_conn,
    };

    layers.events = s.world.events_processed();
    let prof = s.world.profiler();
    layers.self_ms = Component::ALL
        .iter()
        .map(|&c| (c.key(), prof.stats(c).self_ns as f64 / 1e6))
        .collect();
    // Links are numbered in creation order: the gateway client's, the
    // two servers', then one per extra client.
    for i in 0..s.clients.len() + 2 {
        let link = s.world.link(LinkId(s.link_client.0 + i));
        for dir in [LinkDir::AtoB, LinkDir::BtoA] {
            let st = link.stats(dir);
            layers.link_frames += st.delivered;
            layers.link_drops += st.dropped_loss + st.dropped_down;
        }
    }
    for i in 0..plan.serial_links {
        let serial = s.world.serial(SerialId(s.serial.0 + i));
        for dir in [SerialDir::AtoB, SerialDir::BtoA] {
            layers.serial_bytes += serial.stats(dir).bytes_delivered;
        }
    }
    for id in [primary, backup] {
        let m = s.server(id).metrics();
        add_hb(&mut layers.hb, m.hb_bandwidth());
        layers.hold_high_water = layers.hold_high_water.max(m.hold_high_water());
        layers.fetch_bytes += m.fetch_bytes_served();
        layers.replay_bytes += m.replay_bytes();
        layers.verdicts += FailureReason::ALL
            .iter()
            .map(|&r| m.verdict_count(r))
            .sum::<u64>();
    }

    let (slices, setup_scale, mem_ns) = clock.scaled();
    Rep {
        setup_s,
        setup_scale,
        phase_s: clock.phase_s,
        slices,
        ramp_slices,
        mem_ns,
        live_after_ramp,
        setup_heap,
        run_heap_peak,
        hosts: s.clients.len(),
        virt,
        outcome,
        layers,
    }
}
