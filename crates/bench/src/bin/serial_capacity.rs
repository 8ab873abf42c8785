//! Regenerates the paper's **§3 serial-link capacity analysis**: how many
//! simultaneous TCP connections one RS-232 null-modem heartbeat link can
//! carry at each heartbeat period.
//!
//! The paper estimates <20 bytes and ~0.8 kbit/s per connection at a
//! 200 ms period, for roughly 100 connections on 115.2 kbps; this binary
//! measures our implementation's actual wire format against the modelled
//! channel.
//!
//! Run with: `cargo run -p sttcp-bench --bin serial_capacity --release`

use simnet::serial::SerialParams;
use sttcp::config::StTcpConfig;
use sttcp::heartbeat::{HB_CONN_LEN, HB_V3_HEADER_LEN};
use sttcp_bench::experiments::run_serial_capacity;
use sttcp_bench::report::Table;

fn main() {
    println!("§3 — serial heartbeat link capacity (RS-232, 115.2 kbps, 8N1)\n");
    let mut t = Table::new(vec![
        "HB period",
        "bytes/conn",
        "kbit/s per conn",
        "max connections",
        "link utilization",
    ]);
    for hb_ms in [100u64, 200, 500, 1_000] {
        let c = run_serial_capacity(hb_ms);
        t.row(vec![
            format!("{hb_ms} ms"),
            format!("{} (+{} hdr/msg)", c.bytes_per_conn, c.header_bytes),
            format!("{:.2}", c.bits_per_sec_per_conn / 1_000.0),
            c.max_conns.to_string(),
            format!("{:.0}%", c.utilization_at_max * 100.0),
        ]);
    }
    println!("{t}");
    let c200 = run_serial_capacity(200);
    println!(
        "at the paper's 200 ms period: {} B/conn ≈ {:.2} kbit/s/conn ⇒ {} connections\n\
         (paper: <20 B, ~0.8 kbit/s, ~100 connections — same order; our record\n\
         carries one extra flag byte). Beyond that, the paper recommends a\n\
         crossover-Ethernet secondary link, which `SerialParams::crossover_ethernet()`\n\
         models at 100 Mbit/s.",
        c200.bytes_per_conn,
        c200.bits_per_sec_per_conn / 1_000.0,
        c200.max_conns
    );
    // Delta heartbeats pace each serial frame to one check period of
    // line time; the cut frame is a v3 part with an IP + serial ack pair.
    let check = StTcpConfig::default().check_period;
    let line = SerialParams::rs232().bytes_within(check);
    let fit = (line - HB_V3_HEADER_LEN - 2 * 4) / HB_CONN_LEN;
    println!(
        "\nwith delta heartbeats (hb_delta), only records changed since the peer's ack\n\
         ride a round, and each serial frame must serialize within one check period\n\
         ({} ms ⇒ {line} B ⇒ {fit} records per link per round). Beyond that, a round\n\
         carries {fit} in-flight records in rotation and defers the rest: the IP link\n\
         still carries and acks every record each round, and with IP down each\n\
         record reaches the peer within ⌈in-flight/{fit}⌉ rounds. The serial link never\n\
         queues, so its liveness evidence stays within one check period however many\n\
         connections are busy.",
        check.as_millis()
    );
}
