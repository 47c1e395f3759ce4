//! Standing up the stack under test: memory and journaled `vdbd`
//! servers, and a `vdb-router` cluster over in-process shards.

use crate::inputs::Clip;
use std::time::{Duration, Instant};
use vdb_core::analyzer::AnalyzerConfig;
use vdb_router::{Router, RouterConfig, RouterHandle};
use vdb_server::{Client, Server, ServerConfig, ServerHandle, ServerStore};
use vdb_store::{SharedDatabase, VideoDatabase};

/// Server threads. Each holds one connection for its life, so there are
/// enough for the load generator, the benchmark's probes and a router's
/// pooled connections.
pub const SERVER_WORKERS: usize = 8;

pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: SERVER_WORKERS,
        ..ServerConfig::default()
    }
}

pub fn serve(store: ServerStore) -> ServerHandle {
    Server::bind(store, server_config())
        .expect("bind a loopback server")
        .serve()
}

pub fn serve_memory(db: VideoDatabase) -> ServerHandle {
    serve(ServerStore::from_shared(SharedDatabase::from_db(db)))
}

/// Stop a server and wait for its threads.
pub fn stop(handle: ServerHandle) {
    handle.shutdown().expect("clean server shutdown");
}

/// Stream one pool clip over `client`'s connection as `name`. Returns
/// the commit (or the failure), the time spent pushing frames, and the
/// time from the commit request to its ack.
pub fn stream_clip(
    client: &mut Client,
    name: &str,
    clip: &Clip,
) -> Result<(vdb_server::StreamCommit, Duration, Duration), String> {
    let (w, h) = clip.video.dims();
    let started = Instant::now();
    let mut stream = client
        .open_stream(name, w, h, clip.video.fps())
        .map_err(|e| format!("open stream '{name}': {e}"))?;
    for frame in clip.video.frames() {
        stream
            .push(frame)
            .map_err(|e| format!("push to '{name}': {e}"))?;
    }
    let pushed = started.elapsed();
    let commit_started = Instant::now();
    let commit = stream
        .commit()
        .map_err(|e| format!("commit '{name}': {e}"))?;
    Ok((commit, pushed, commit_started.elapsed()))
}

/// Check a stream commit against the clip's in-process analysis.
pub fn check_commit(commit: &vdb_server::StreamCommit, clip: &Clip) -> Result<(), String> {
    if commit.frames != clip.frames() || commit.shots != clip.expected.segmentation.shots.len() {
        return Err(format!(
            "stream commit {} frames/{} shots, expected {}/{}",
            commit.frames,
            commit.shots,
            clip.frames(),
            clip.expected.segmentation.shots.len()
        ));
    }
    Ok(())
}

/// A single-node oracle holding `names[i]` = `pool[i % len]`'s
/// analysis, committed in order with no genre tags — what a node that
/// received the same streams holds.
pub fn stream_oracle(pool: &[Clip], names: &[String]) -> VideoDatabase {
    let mut db = VideoDatabase::with_config(AnalyzerConfig::default());
    for (i, name) in names.iter().enumerate() {
        let clip = &pool[i % pool.len()];
        db.ingest_precomputed(
            name.clone(),
            clip.video.dims(),
            clip.video.fps(),
            clip.expected.clone(),
            Vec::new(),
            Vec::new(),
        );
    }
    db
}

/// Two in-process memory shards behind a router.
pub struct Cluster {
    pub shards: Vec<ServerHandle>,
    pub router: RouterHandle,
}

impl Cluster {
    /// Bind the shards and the router, then stream `names` (cycling the
    /// pool) through the router.
    pub fn start(pool: &[Clip], names: &[String]) -> Result<Cluster, String> {
        let shards: Vec<ServerHandle> = (0..2)
            .map(|slot| {
                let config = ServerConfig {
                    shard_id: Some(slot.to_string()),
                    ..server_config()
                };
                Server::bind(ServerStore::memory(), config)
                    .expect("bind a shard")
                    .serve()
            })
            .collect();
        let router = Router::bind(RouterConfig {
            shards: shards.iter().map(|s| s.addr().to_string()).collect(),
            workers: SERVER_WORKERS,
            ..RouterConfig::default()
        })
        .expect("bind the router")
        .serve();
        let mut client = crate::load::connect(router.addr());
        for (i, name) in names.iter().enumerate() {
            let clip = &pool[i % pool.len()];
            let (commit, _, _) = stream_clip(&mut client, name, clip)?;
            check_commit(&commit, clip)?;
        }
        Ok(Cluster { shards, router })
    }

    pub fn stop(self) {
        self.router.shutdown();
        for shard in self.shards {
            stop(shard);
        }
    }
}
