//! Serial (null-modem) channels.
//!
//! ST-TCP's second heartbeat link is an RS-232 null-modem cable between
//! the two servers (paper §3). Its value is *fate diversity*: a NIC or
//! Ethernet-cable failure takes down the IP link but not the serial link,
//! which is what lets the servers distinguish "peer crashed" from "peer's
//! network is gone" (§4.3). The model is a point-to-point byte channel
//! with RS-232 bandwidth (start/stop-bit framing overhead included) and an
//! independent up/down state.

use core::fmt;

use crate::node::{NodeId, SerialPortId};
use crate::time::{SimDuration, SimTime};

/// Identifies a serial channel within a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SerialId(pub usize);

/// Which direction data travels on a serial channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SerialDir {
    /// From endpoint `a` toward endpoint `b`.
    AtoB,
    /// From endpoint `b` toward endpoint `a`.
    BtoA,
}

impl SerialDir {
    fn index(self) -> usize {
        match self {
            SerialDir::AtoB => 0,
            SerialDir::BtoA => 1,
        }
    }
}

impl fmt::Display for SerialDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerialDir::AtoB => write!(f, "a->b"),
            SerialDir::BtoA => write!(f, "b->a"),
        }
    }
}

/// Physical parameters of a serial channel.
#[derive(Debug, Clone, Copy)]
pub struct SerialParams {
    /// Line rate in bits per second.
    pub baud: u64,
    /// Bits on the wire per payload byte (8 data + start + stop = 10 for
    /// standard 8N1 framing).
    pub bits_per_byte: u64,
    /// One-way propagation latency (negligible for a 2 m cable, but
    /// configurable).
    pub latency: SimDuration,
}

impl SerialParams {
    /// Standard RS-232 at 115.2 kbps, 8N1 — the paper's configuration.
    pub fn rs232() -> SerialParams {
        SerialParams {
            baud: 115_200,
            bits_per_byte: 10,
            latency: SimDuration::from_micros(1),
        }
    }

    /// A direct crossover-Ethernet replacement for the serial cable, which
    /// the paper suggests when more than ~100 connections are needed (§3):
    /// 100 Mbit/s with no start/stop framing.
    pub fn crossover_ethernet() -> SerialParams {
        SerialParams {
            baud: 100_000_000,
            bits_per_byte: 8,
            latency: SimDuration::from_micros(5),
        }
    }

    /// The largest message that serializes within `d` on an idle line:
    /// the inverse of [`SerialState::serialization_time`].
    pub fn bytes_within(&self, d: SimDuration) -> usize {
        let bits = d.as_micros() as u128 * self.baud as u128 / 1_000_000;
        (bits / self.bits_per_byte.max(1) as u128).min(usize::MAX as u128) as usize
    }
}

impl Default for SerialParams {
    fn default() -> Self {
        SerialParams::rs232()
    }
}

/// Delivery counters for one direction of a serial channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialStats {
    /// Messages offered for transmission.
    pub offered: u64,
    /// Messages scheduled for delivery.
    pub delivered: u64,
    /// Messages dropped because the channel was down.
    pub dropped_down: u64,
    /// Payload bytes scheduled for delivery.
    pub bytes_delivered: u64,
    /// The longest any delivered message waited behind earlier ones
    /// before its first bit went out (zero while the line never
    /// queues).
    pub max_queue_delay: SimDuration,
}

#[derive(Debug, Default, Clone, Copy)]
struct SerialDirState {
    busy_until: SimTime,
}

/// The simulator-internal state of one serial channel.
#[derive(Debug)]
pub struct SerialState {
    /// Endpoint `a`: (node, that node's serial port index).
    pub a: (NodeId, SerialPortId),
    /// Endpoint `b`.
    pub b: (NodeId, SerialPortId),
    params: SerialParams,
    down: bool,
    dirs: [SerialDirState; 2],
    stats: [SerialStats; 2],
}

/// The outcome of offering a message to a serial channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerialTxOutcome {
    /// The message will arrive at the far end at the given time.
    Deliver(SimTime),
    /// The channel is down; the message is lost.
    Dropped,
}

impl SerialState {
    /// Creates a standalone channel (normally done by
    /// [`crate::world::World::connect_serial`]; public so capacity
    /// analyses can model a channel without a world).
    pub fn new(
        a: (NodeId, SerialPortId),
        b: (NodeId, SerialPortId),
        params: SerialParams,
    ) -> SerialState {
        SerialState {
            a,
            b,
            params,
            down: false,
            dirs: Default::default(),
            stats: Default::default(),
        }
    }

    /// The physical parameters of the channel.
    pub fn params(&self) -> SerialParams {
        self.params
    }

    /// True if the channel is down.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Administratively downs (or restores) the channel.
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
    }

    /// Delivery counters for `dir`.
    pub fn stats(&self, dir: SerialDir) -> SerialStats {
        self.stats[dir.index()]
    }

    /// The direction for data originating at `from`, or `None` if `from`
    /// is not an endpoint.
    pub fn dir_from(&self, from: (NodeId, SerialPortId)) -> Option<SerialDir> {
        if self.a == from {
            Some(SerialDir::AtoB)
        } else if self.b == from {
            Some(SerialDir::BtoA)
        } else {
            None
        }
    }

    /// The receiving endpoint for data travelling in `dir`.
    pub fn dest(&self, dir: SerialDir) -> (NodeId, SerialPortId) {
        match dir {
            SerialDir::AtoB => self.b,
            SerialDir::BtoA => self.a,
        }
    }

    /// Offers `len` payload bytes for transmission in `dir` at `now`.
    ///
    /// Models FIFO serialization at the line rate (including start/stop
    /// framing bits) plus propagation latency.
    pub fn transmit(&mut self, now: SimTime, dir: SerialDir, len: usize) -> SerialTxOutcome {
        let i = dir.index();
        self.stats[i].offered += 1;
        if self.down {
            self.stats[i].dropped_down += 1;
            return SerialTxOutcome::Dropped;
        }
        let ser = self.serialization_time(len);
        let d = &mut self.dirs[i];
        let start = d.busy_until.max(now);
        d.busy_until = start + ser;
        let st = &mut self.stats[i];
        st.delivered += 1;
        st.bytes_delivered += len as u64;
        st.max_queue_delay = st.max_queue_delay.max(start.saturating_since(now));
        SerialTxOutcome::Deliver(d.busy_until + self.params.latency)
    }

    /// How long data already queued in `dir` needs at `now` to finish
    /// serializing: the `TIOCOUTQ` view of the transmit side, as time.
    pub fn drain_time(&self, now: SimTime, dir: SerialDir) -> SimDuration {
        self.dirs[dir.index()].busy_until.saturating_since(now)
    }

    /// The duration needed to serialize one `len`-byte message on an idle
    /// channel (excluding latency). Useful for capacity computations like
    /// the paper's "~100 connections per serial link" claim.
    pub fn serialization_time(&self, len: usize) -> SimDuration {
        let bits = len as u128 * self.params.bits_per_byte as u128;
        let micros = (bits * 1_000_000).div_ceil(self.params.baud.max(1) as u128);
        SimDuration::from_micros(micros.min(u64::MAX as u128) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> SerialState {
        SerialState::new(
            (NodeId(0), SerialPortId(0)),
            (NodeId(1), SerialPortId(0)),
            SerialParams::rs232(),
        )
    }

    #[test]
    fn rs232_serialization_matches_paper_arithmetic() {
        // 20-byte HB at 115.2 kbps 8N1: 200 bits → ~1736 µs.
        let c = chan();
        let d = c.serialization_time(20);
        assert_eq!(d.as_micros(), 1_737); // ceil(200*1e6/115200)
    }

    #[test]
    fn transmit_applies_latency_and_serialization() {
        let mut c = chan();
        let out = c.transmit(SimTime::ZERO, SerialDir::AtoB, 20);
        let expected = SimTime::ZERO + c.serialization_time(20) + c.params().latency;
        assert_eq!(out, SerialTxOutcome::Deliver(expected));
    }

    #[test]
    fn fifo_queueing_per_direction() {
        let mut c = chan();
        let ser = c.serialization_time(100);
        let first = c.transmit(SimTime::ZERO, SerialDir::AtoB, 100);
        let second = c.transmit(SimTime::ZERO, SerialDir::AtoB, 100);
        let lat = c.params().latency;
        assert_eq!(first, SerialTxOutcome::Deliver(SimTime::ZERO + ser + lat));
        assert_eq!(
            second,
            SerialTxOutcome::Deliver(SimTime::ZERO + ser + ser + lat)
        );
        // Other direction unaffected (full duplex).
        let rev = c.transmit(SimTime::ZERO, SerialDir::BtoA, 100);
        assert_eq!(rev, SerialTxOutcome::Deliver(SimTime::ZERO + ser + lat));
    }

    #[test]
    fn down_channel_drops() {
        let mut c = chan();
        c.set_down(true);
        assert!(c.is_down());
        assert_eq!(
            c.transmit(SimTime::ZERO, SerialDir::AtoB, 10),
            SerialTxOutcome::Dropped
        );
        assert_eq!(c.stats(SerialDir::AtoB).dropped_down, 1);
        c.set_down(false);
        assert!(matches!(
            c.transmit(SimTime::ZERO, SerialDir::AtoB, 10),
            SerialTxOutcome::Deliver(_)
        ));
    }

    #[test]
    fn endpoints_and_directions() {
        let c = chan();
        assert_eq!(
            c.dir_from((NodeId(0), SerialPortId(0))),
            Some(SerialDir::AtoB)
        );
        assert_eq!(
            c.dir_from((NodeId(1), SerialPortId(0))),
            Some(SerialDir::BtoA)
        );
        assert_eq!(c.dir_from((NodeId(9), SerialPortId(0))), None);
        assert_eq!(c.dest(SerialDir::AtoB), (NodeId(1), SerialPortId(0)));
    }

    #[test]
    fn crossover_ethernet_is_much_faster() {
        let slow = chan();
        let fast = SerialState::new(
            (NodeId(0), SerialPortId(0)),
            (NodeId(1), SerialPortId(0)),
            SerialParams::crossover_ethernet(),
        );
        assert!(fast.serialization_time(1000) < slow.serialization_time(1000));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = chan();
        let _ = c.transmit(SimTime::ZERO, SerialDir::AtoB, 10);
        let _ = c.transmit(SimTime::ZERO, SerialDir::AtoB, 15);
        let s = c.stats(SerialDir::AtoB);
        assert_eq!(s.offered, 2);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.bytes_delivered, 25);
    }

    #[test]
    fn queue_delay_and_drain_time_track_the_backlog() {
        let mut c = chan();
        let ser = c.serialization_time(100);
        assert_eq!(
            c.drain_time(SimTime::ZERO, SerialDir::AtoB),
            SimDuration::ZERO
        );
        let _ = c.transmit(SimTime::ZERO, SerialDir::AtoB, 100);
        assert_eq!(c.stats(SerialDir::AtoB).max_queue_delay, SimDuration::ZERO);
        assert_eq!(c.drain_time(SimTime::ZERO, SerialDir::AtoB), ser);
        // A second message offered 1 ms later waits out the first.
        let t1 = SimTime::from_millis(1);
        let _ = c.transmit(t1, SerialDir::AtoB, 100);
        let waited = (SimTime::ZERO + ser).saturating_since(t1);
        assert_eq!(c.stats(SerialDir::AtoB).max_queue_delay, waited);
        assert_eq!(c.drain_time(t1, SerialDir::AtoB), waited + ser);
        // The other direction stays idle; a drained line reads zero.
        assert_eq!(c.drain_time(t1, SerialDir::BtoA), SimDuration::ZERO);
        assert_eq!(
            c.drain_time(SimTime::from_secs(1), SerialDir::AtoB),
            SimDuration::ZERO
        );
    }

    #[test]
    fn bytes_within_inverts_serialization_time() {
        let c = chan();
        let d = SimDuration::from_millis(50);
        let n = c.params().bytes_within(d);
        // 50 ms of 115.2 kbps 8N1 carries 576 bytes.
        assert_eq!(n, 576);
        assert!(c.serialization_time(n) <= d);
        assert!(c.serialization_time(n + 1) > d);
    }
}
