//! One server application for a mix of clients on one listener.

use simnet::time::SimTime;
use sttcp::app::{AppAction, Application};
use sttcp_apps::apps::{ReqRespApp, StreamApp};

/// Serves a [`StreamApp`] download to a connection whose first byte opens
/// a `GET` line, and [`ReqRespApp`] answers to any other. The scenario
/// builder takes one application factory, and `bulk256m` runs a download
/// next to a request client.
pub enum MixedApp {
    /// No byte received yet; a stream would write `chunk` per tick.
    Undecided {
        /// Bytes per tick of a stream.
        chunk: usize,
    },
    /// Serving a download.
    Stream(StreamApp),
    /// Answering requests.
    Req(ReqRespApp),
}

impl MixedApp {
    /// A connection's application, streaming `chunk` bytes per tick if it
    /// turns out to be a download.
    pub fn new(chunk: usize) -> MixedApp {
        MixedApp::Undecided { chunk }
    }

    fn inner(&mut self) -> Option<&mut dyn Application> {
        match self {
            MixedApp::Undecided { .. } => None,
            MixedApp::Stream(a) => Some(a),
            MixedApp::Req(a) => Some(a),
        }
    }
}

impl Application for MixedApp {
    fn on_data(&mut self, data: &[u8]) -> Vec<AppAction> {
        if let MixedApp::Undecided { chunk } = *self {
            match data.first() {
                None => return Vec::new(),
                Some(b'G') => *self = MixedApp::Stream(StreamApp::new(chunk, false)),
                Some(_) => *self = MixedApp::Req(ReqRespApp::new()),
            }
        }
        self.inner().map_or_else(Vec::new, |a| a.on_data(data))
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<AppAction> {
        self.inner().map_or_else(Vec::new, |a| a.on_tick(now))
    }

    fn wants_tick(&self) -> bool {
        match self {
            MixedApp::Undecided { .. } => false,
            MixedApp::Stream(a) => a.wants_tick(),
            MixedApp::Req(a) => a.wants_tick(),
        }
    }

    fn on_peer_close(&mut self) -> Vec<AppAction> {
        self.inner()
            .map_or_else(|| vec![AppAction::Close], |a| a.on_peer_close())
    }

    fn state_digest(&self) -> u64 {
        match self {
            MixedApp::Undecided { .. } => 0,
            MixedApp::Stream(a) => a.state_digest(),
            MixedApp::Req(a) => a.state_digest(),
        }
    }

    // Layout: kind(1) ‖ the inner application's snapshot.
    fn snapshot(&self) -> Option<Vec<u8>> {
        let (kind, inner) = match self {
            MixedApp::Undecided { .. } => (0, Some(Vec::new())),
            MixedApp::Stream(a) => (1, a.snapshot()),
            MixedApp::Req(a) => (2, a.snapshot()),
        };
        let mut out = vec![kind];
        out.extend(inner?);
        Some(out)
    }

    fn restore(&mut self, state: &[u8]) {
        let chunk = match self {
            MixedApp::Undecided { chunk } => *chunk,
            _ => return,
        };
        match state.split_first() {
            Some((1, rest)) => {
                let mut a = StreamApp::new(chunk, false);
                a.restore(rest);
                *self = MixedApp::Stream(a);
            }
            Some((2, rest)) => {
                let mut a = ReqRespApp::new();
                a.restore(rest);
                *self = MixedApp::Req(a);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(actions: &[AppAction]) -> Vec<u8> {
        actions
            .iter()
            .filter_map(|a| match a {
                AppAction::Write(b) => Some(b.to_vec()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn first_byte_picks_the_service() {
        let mut req = MixedApp::new(1024);
        let out = written(&req.on_data(b"q000000-00000000\n"));
        assert_eq!(out, ReqRespApp::response_for(b"q000000-00000000").to_vec());
        let mut get = MixedApp::new(1024);
        assert_eq!(written(&get.on_data(b"GET 4000\n")).len(), 1024);
        assert!(get.wants_tick() && !req.wants_tick());
    }

    #[test]
    fn snapshot_restores_the_same_service_and_state() {
        let mut a = MixedApp::new(1024);
        a.on_data(b"GET 4000\n");
        a.on_tick(SimTime::ZERO);
        let mut b = MixedApp::new(1024);
        b.restore(&a.snapshot().unwrap());
        assert_eq!(b.state_digest(), a.state_digest());
        assert_eq!(
            written(&b.on_tick(SimTime::ZERO)),
            written(&a.on_tick(SimTime::ZERO))
        );
    }
}
