//! What the socket-level integration tests share: 1-worker ranks over
//! ephemeral loopback ports, built-in configuration.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use ttg_net::tcp::ephemeral_listeners;
use ttg_net::{NetConfig, NetRuntime, TcpTransport, Transport};
use ttg_runtime::RuntimeConfig;

/// Rank `rank` of a TCP mesh over `addrs`. Blocks until its peers have
/// connected.
pub fn rank_of(rank: usize, listener: TcpListener, addrs: &[SocketAddr]) -> NetRuntime {
    let cfg = NetConfig::builtin();
    NetRuntime::over_transport_with(
        RuntimeConfig::optimized(1),
        &cfg.clone(),
        rank,
        addrs.len(),
        |sink| {
            TcpTransport::with_listener_cfg(rank, listener, addrs, sink, cfg)
                .map(|t| t as Arc<dyn Transport>)
        },
    )
    .expect("mesh connects")
}

/// A 2-rank TCP mesh.
pub fn mesh() -> Vec<NetRuntime> {
    let (listeners, addrs) = ephemeral_listeners(2).unwrap();
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(rank, listener)| {
            let addrs = addrs.clone();
            std::thread::spawn(move || rank_of(rank, listener, &addrs))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}
