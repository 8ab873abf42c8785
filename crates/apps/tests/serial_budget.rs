//! A primary crash under load must be diagnosed as a crash.
//!
//! 150 request/response clients keep every connection dirty every
//! heartbeat round, which is more than one 115.2 kbps serial link can
//! carry. If serial heartbeats queued without bound, a crashed primary's
//! backlog would keep arriving for seconds, the backup's serial monitor
//! would stay alive, and the crash would be misread as a NIC failure
//! (Table 1 row 4) and taken over only once the net-lag detector fires.
//! Heartbeat frames paced to the line keep the serial evidence at most
//! one check period stale, so the backup sees both links go silent.

use std::rc::Rc;

use simnet::serial::SerialDir;
use simnet::time::{SimDuration, SimTime};
use sttcp::config::StTcpConfig;
use sttcp::events::FailureReason;
use sttcp_apps::apps::ReqRespApp;
use sttcp_apps::client::ClientWorkload;
use sttcp_apps::scenario::ScenarioBuilder;

#[test]
fn loaded_crash_is_detected_as_a_crash_within_the_heartbeat_timeout() {
    let clients = 150u64;
    let req = ClientWorkload::ReqResp {
        period: SimDuration::from_millis(100),
        count: 60,
    };
    let cfg = StTcpConfig {
        hb_delta: true,
        hb_batch: 1024,
        ..Default::default()
    };
    let mut s = ScenarioBuilder::new(Rc::new(|| Box::new(ReqRespApp::new()) as _), req.clone())
        .extra_clients(vec![req; clients as usize - 1])
        .seed(3)
        .sttcp(cfg.clone())
        .build();
    // Clients connect 1 ms apart from t = 100 ms; crash 2 s after the ramp.
    let crash_at = SimTime::from_millis(100 + clients + 2_000);
    s.crash_primary_at(crash_at);
    s.world
        .run_until(crash_at + SimDuration::from_millis(1_500));

    let backup = s.server(s.backup);
    let took = backup.took_over_at().expect("backup took over");
    let verdicts: Vec<(FailureReason, u64)> = FailureReason::ALL
        .iter()
        .map(|&r| (r, backup.metrics().verdict_count(r)))
        .filter(|&(_, n)| n > 0)
        .collect();
    assert_eq!(
        verdicts,
        vec![(FailureReason::HbBothLinksDown, 1)],
        "a crash must read as both heartbeat links down"
    );
    let bound = cfg.hb_timeout() + cfg.check_period * 2 + cfg.stonith_delay;
    let stall = took.saturating_since(crash_at);
    assert!(
        stall <= bound,
        "takeover {stall} after the crash, bound {bound}"
    );

    // The line was over-subscribed, so the budget did cut rounds, and no
    // frame ever waited a check period for the line.
    assert!(s.server(s.primary).metrics().hb_serial_deferred() > 0);
    for dir in [SerialDir::AtoB, SerialDir::BtoA] {
        let st = s.world.serial(s.serial).stats(dir);
        assert!(st.delivered > 0);
        assert!(
            st.max_queue_delay <= cfg.check_period,
            "{dir}: a serial frame queued {} behind earlier ones",
            st.max_queue_delay
        );
    }
}
