//! The `/stats` observability surface, end to end through REST dispatch:
//! path resolution, flat/tree renderings, monotone counters across
//! topology churn (add/remove/fail), whole partitions under concurrent
//! churn, the hot-key-weighted split point, and window-reset semantics
//! (`/stats/reset`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pesos_cluster::{ClusterConfig, ControllerCluster};
use pesos_core::ClientRequest;
use pesos_telemetry::StatsNode;
use pesos_wire::{RestMethod, RestRequest, RestStatus};

const CLIENT: &str = "alice";

fn build(controllers: usize, backups: usize) -> Arc<ControllerCluster> {
    let mut config = ClusterConfig::native_simulator(controllers, 1);
    config.backups_per_partition = backups;
    let cluster = Arc::new(ControllerCluster::new(config).unwrap());
    cluster.register_client(CLIENT);
    cluster
}

/// Serves `/stats/<path>` through the cluster's REST dispatch; `None`
/// when the path does not resolve.
fn stats(cluster: &ControllerCluster, path: &str) -> Option<String> {
    let response = cluster.handle(
        CLIENT,
        ClientRequest::new(RestRequest::new(RestMethod::Stats, path)),
    );
    if response.status == RestStatus::Ok {
        Some(String::from_utf8(response.value).unwrap())
    } else {
        None
    }
}

/// Reads one numeric leaf.
fn leaf(cluster: &ControllerCluster, path: &str) -> u64 {
    stats(cluster, path)
        .unwrap_or_else(|| panic!("stats path {path:?} did not resolve"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("stats path {path:?} is not a numeric leaf: {e}"))
}

/// Every partition's `resident_objects`, in partition order.
fn resident_objects(cluster: &ControllerCluster) -> Vec<u64> {
    (0..cluster.partition_count())
        .map(|i| leaf(cluster, &format!("partitions/{i}/resident_objects")))
        .collect()
}

fn put(cluster: &ControllerCluster, key: &str) {
    cluster
        .put(
            CLIENT,
            key,
            format!("{key}-v").into_bytes(),
            None,
            None,
            &[],
        )
        .unwrap();
}

/// Every partition index in the current table resolves under
/// `/stats/partitions/<i>`, the next index does not (no stale entries
/// survive churn), and the advertised partition count matches.
fn assert_partitions_consistent(cluster: &ControllerCluster) {
    let count = cluster.partition_count() as u64;
    assert_eq!(leaf(cluster, "cluster/partitions"), count);
    for i in 0..count {
        leaf(cluster, &format!("partitions/{i}/requests"));
        leaf(cluster, &format!("partitions/{i}/range/end"));
    }
    assert!(
        stats(cluster, &format!("partitions/{count}")).is_none(),
        "stale partition id {count} still served"
    );
}

#[test]
fn stats_paths_stay_valid_and_monotone_across_churn() {
    let cluster = build(2, 1);
    for i in 0..12 {
        put(&cluster, &format!("churn{i}.obj"));
    }
    for i in 0..12 {
        cluster.get(CLIENT, &format!("churn{i}.obj"), &[]).unwrap();
    }

    assert_partitions_consistent(&cluster);
    assert_eq!(leaf(&cluster, "ops/put/count"), 12);
    assert_eq!(leaf(&cluster, "ops/get/count"), 12);
    assert!(leaf(&cluster, "ops/get/p50_us") <= leaf(&cluster, "ops/get/max_us"));
    assert!(leaf(&cluster, "groups/total_ops") >= 24);
    // `?top=` travels inside the request key and bounds the hot-group
    // listing (twelve groups were touched above; the default serves all).
    let hot = stats(&cluster, "groups/hot?top=3&flat").unwrap();
    assert_eq!(hot.lines().count(), 3, "{hot}");
    assert_eq!(
        stats(&cluster, "groups/hot?flat").unwrap().lines().count(),
        12
    );
    let digests_before = leaf(&cluster, "digests/compressions");
    assert!(digests_before > 0);

    // Each partition serves its store's caches. The twelve objects fit, so
    // the gets hit what the puts cached: nothing missed, was evicted or
    // lost admission.
    let cache_total = |name: &str| -> u64 {
        (0..cluster.partition_count())
            .map(|i| {
                leaf(
                    &cluster,
                    &format!("partitions/{i}/store/object_cache/{name}"),
                )
            })
            .sum()
    };
    assert_eq!(cache_total("hits"), 12);
    assert_eq!(cache_total("entries"), 12);
    for name in ["misses", "evictions", "refused"] {
        assert_eq!(cache_total(name), 0, "object_cache/{name}");
    }
    assert!(cache_total("used_bytes") >= 12 * "churn0.obj-v".len() as u64);
    // The policy cache's subtree has the object cache's leaves, bytes
    // aside; with no policy read back, no fill lost admission.
    for name in ["hits", "misses", "evictions", "refused", "entries"] {
        leaf(&cluster, &format!("partitions/0/store/policy_cache/{name}"));
    }
    assert_eq!(leaf(&cluster, "partitions/0/store/policy_cache/refused"), 0);
    // No object has a policy, so nothing was evaluated or remembered.
    for name in ["evaluations", "hits", "stale", "entries"] {
        let path = format!("partitions/0/store/policy_cache/decisions/{name}");
        assert_eq!(leaf(&cluster, &path), 0, "{path}");
    }

    // Replication gauges exist with one backup per partition, and lag is
    // bounded by what was appended.
    let appended = leaf(&cluster, "partitions/0/replication/appended");
    assert!(leaf(&cluster, "partitions/0/replication/lag") <= appended);
    assert_eq!(leaf(&cluster, "partitions/0/replication/backups"), 1);
    // Caught up, the backup's drives served at most one batch per record
    // (a wake-up's records share batches), and some once there were any.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while leaf(&cluster, "partitions/0/replication/lag") > 0 {
        assert!(std::time::Instant::now() < deadline, "the backup stalled");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let batches = leaf(&cluster, "partitions/0/replication/backup_drive_batches");
    assert!(
        batches <= appended,
        "{batches} batches for {appended} records"
    );
    assert_eq!(batches == 0, appended == 0);

    // Grow: the new partition appears, no index is stale, and lifetime
    // counters never move backwards.
    cluster.add_controller().unwrap();
    assert_partitions_consistent(&cluster);
    assert_eq!(leaf(&cluster, "migrations/active"), 0);
    assert!(leaf(&cluster, "digests/compressions") >= digests_before);

    // The flat rendering carries full paths; the rendered tree resolves
    // the same leaves the direct paths do.
    let flat = stats(&cluster, "?flat").unwrap();
    assert!(flat.lines().any(|l| l.starts_with("cluster/partitions ")));
    assert!(flat.lines().any(|l| l.starts_with("ops/get/count ")));

    // Shrink back and fail a partition over to its backup: the tree keeps
    // matching the live table through both.
    cluster
        .remove_controller(cluster.partition_count() - 1)
        .unwrap();
    assert_partitions_consistent(&cluster);
    cluster.fail_controller(0).unwrap();
    assert_partitions_consistent(&cluster);

    // Counters keep counting after churn (windows survive topology
    // changes; only an explicit reset clears them).
    let gets_before = leaf(&cluster, "ops/get/count");
    cluster.get(CLIENT, "churn0.obj", &[]).unwrap();
    assert_eq!(leaf(&cluster, "ops/get/count"), gets_before + 1);
}

#[test]
fn every_rendered_partition_is_whole_under_concurrent_churn() {
    // One render reads one routing snapshot: a partition's range and its
    // controller's own subtree (metrics, latency, sgx) always come from
    // the same table, however the topology moves while it renders.
    let cluster = build(2, 1);
    for i in 0..16 {
        put(&cluster, &format!("whole{i}.obj"));
    }
    let done = Arc::new(AtomicBool::new(false));
    let churn = {
        let (cluster, done) = (Arc::clone(&cluster), Arc::clone(&done));
        std::thread::spawn(move || {
            for _ in 0..12 {
                cluster.add_controller().unwrap();
                cluster
                    .remove_controller(cluster.partition_count() - 1)
                    .unwrap();
            }
            done.store(true, Ordering::Release);
        })
    };
    let mut renders = 0u64;
    while !done.load(Ordering::Acquire) || renders == 0 {
        let tree = cluster.stats_tree(0);
        let Some(StatsNode::Dir(partitions)) = tree.resolve("partitions") else {
            panic!("no partitions directory");
        };
        assert!(!partitions.is_empty());
        for (index, node) in partitions {
            for path in ["range/start", "metrics/requests"] {
                assert!(
                    node.resolve(path).is_some(),
                    "partitions/{index} rendered without {path}"
                );
            }
        }
        renders += 1;
    }
    churn.join().unwrap();
    assert!(renders > 0);
}

#[test]
fn hot_key_weight_moves_the_split_point() {
    // 20 single-member groups on one partition; hammer the 4 groups with
    // the *highest* routing hashes so the op-weighted median lands inside
    // the hot minority instead of the resident-key midpoint.
    let keys: Vec<String> = (0..20).map(|i| format!("hot{i}.obj")).collect();
    let mut by_hash: Vec<&String> = keys.iter().collect();
    by_hash.sort_by_key(|k| pesos_core::routing_hash(k, Some('.')));
    let hot: Vec<&String> = by_hash[16..].to_vec();

    let cluster = build(1, 0);
    for key in &keys {
        put(&cluster, key);
    }
    for key in &hot {
        for _ in 0..50 {
            cluster.get(CLIENT, key, &[]).unwrap();
        }
    }
    cluster.add_controller().unwrap();

    let mut residents = resident_objects(&cluster);
    residents.sort_unstable();
    assert_eq!(residents.iter().sum::<u64>(), 20);
    assert!(
        residents[0] <= 5,
        "split ignored the hot minority: residents {residents:?}"
    );
    // The hot window was consumed by the split and then reset with the
    // rest of the request baseline.
    assert_eq!(leaf(&cluster, "groups/total_ops"), 0);

    // Control: identical keys with uniform traffic split at the resident
    // median — an even spread, not a hot-side carve-out.
    let uniform = build(1, 0);
    for key in &keys {
        put(&uniform, key);
    }
    uniform.add_controller().unwrap();
    let mut residents = resident_objects(&uniform);
    residents.sort_unstable();
    assert!(
        residents[0] >= 8,
        "uniform traffic should split near the median: residents {residents:?}"
    );
}

#[test]
fn stats_reset_clears_windows_but_not_lifetime_counters() {
    let cluster = build(2, 0);
    for i in 0..8 {
        put(&cluster, &format!("reset{i}.obj"));
        cluster.get(CLIENT, &format!("reset{i}.obj"), &[]).unwrap();
    }
    assert_eq!(leaf(&cluster, "ops/put/count"), 8);
    assert!(leaf(&cluster, "groups/total_ops") >= 16);
    let digests = leaf(&cluster, "digests/compressions");
    assert!(digests > 0);
    let load = || leaf(&cluster, "partitions/0/requests") + leaf(&cluster, "partitions/1/requests");
    let load_before = load();
    assert!(load_before >= 16);

    let response = cluster.handle(
        CLIENT,
        ClientRequest::new(RestRequest::new(RestMethod::Stats, "reset")),
    );
    assert_eq!(response.status, RestStatus::Ok);
    // The load window is the rebalancer's input: reading stats, or
    // resetting them, does not restart it (a topology change does).
    assert_eq!(load(), load_before);

    assert_eq!(leaf(&cluster, "ops/put/count"), 0);
    assert_eq!(leaf(&cluster, "ops/get/count"), 0);
    assert_eq!(leaf(&cluster, "groups/total_ops"), 0);
    assert_eq!(leaf(&cluster, "retries/request_retries"), 0);
    // Lifetime counters (the digest tally is process-wide and always on)
    // survive the window reset.
    assert!(leaf(&cluster, "digests/compressions") >= digests);

    // The window starts counting again immediately.
    cluster.get(CLIENT, "reset0.obj", &[]).unwrap();
    assert_eq!(leaf(&cluster, "ops/get/count"), 1);

    // An unauthenticated client cannot read or reset stats.
    let response = cluster.handle(
        "mallory",
        ClientRequest::new(RestRequest::new(RestMethod::Stats, "")),
    );
    assert_ne!(response.status, RestStatus::Ok);
}

#[test]
fn telemetry_toggle_pauses_and_resumes_recording() {
    let cluster = build(2, 0);
    for i in 0..4 {
        put(&cluster, &format!("tog{i}.obj"));
    }
    assert_eq!(
        stats(&cluster, "cluster/telemetry_enabled").unwrap().trim(),
        "true"
    );
    assert_eq!(leaf(&cluster, "ops/put/count"), 4);
    let group_ops = leaf(&cluster, "groups/total_ops");
    assert!(group_ops >= 4);

    // Off: requests keep being served (and the lifetime request counter
    // keeps moving), but histograms and hot-group counters stand still.
    cluster.set_telemetry_enabled(false);
    let requests =
        leaf(&cluster, "partitions/0/requests") + leaf(&cluster, "partitions/1/requests");
    for i in 0..4 {
        cluster.get(CLIENT, &format!("tog{i}.obj"), &[]).unwrap();
    }
    assert_eq!(
        stats(&cluster, "cluster/telemetry_enabled").unwrap().trim(),
        "false"
    );
    assert_eq!(leaf(&cluster, "ops/get/count"), 0);
    assert_eq!(leaf(&cluster, "groups/total_ops"), group_ops);
    assert!(
        leaf(&cluster, "partitions/0/requests") + leaf(&cluster, "partitions/1/requests")
            > requests
    );

    // Back on: the same windows resume counting from where they stopped.
    cluster.set_telemetry_enabled(true);
    cluster.get(CLIENT, "tog0.obj", &[]).unwrap();
    assert_eq!(leaf(&cluster, "ops/get/count"), 1);
    assert!(leaf(&cluster, "groups/total_ops") > group_ops);
}

/// A controller that joins while recording is off records nothing: the
/// cluster and its controllers share one switch.
#[test]
fn a_joiner_records_nothing_while_the_cluster_is_off() {
    let cluster = build(1, 0);
    cluster.set_telemetry_enabled(false);
    cluster.add_controller().unwrap();
    for i in 0..64 {
        put(&cluster, &format!("k{i}"));
    }
    assert!(leaf(&cluster, "partitions/1/metrics/writes") > 0);
    for partition in 0..2 {
        let recorded = leaf(
            &cluster,
            &format!("partitions/{partition}/latency/put/count"),
        );
        assert_eq!(recorded, 0, "partition {partition} recorded while off");
    }
}

/// `/stats/partitions/<i>/store/policy_cache/decisions/*`: a repeated
/// policy-checked read is answered by the decision its first read left
/// beside the policy, until a write to the log it read makes it stale.
#[test]
fn remembered_read_decisions_are_counted() {
    let cluster = build(1, 0);
    let policy = cluster
        .put_policy(
            CLIENT,
            "read :- sessionKeyIs(U) and objSays(LOG, V, 'grant'(U))\n\
             update :- sessionKeyIs(\"alice\")",
        )
        .unwrap();
    let log = |grant: &str| format!("grant(\"{grant}\")").into_bytes();
    cluster
        .put(CLIENT, "doc.log", log(CLIENT), None, None, &[])
        .unwrap();
    cluster
        .put(CLIENT, "doc", b"text", Some(policy), None, &[])
        .unwrap();
    let decisions = |name: &str| {
        leaf(
            &cluster,
            &format!("partitions/0/store/policy_cache/decisions/{name}"),
        )
    };
    let lookups = || leaf(&cluster, "partitions/0/store/policy_cache/hits");
    let lookups_before = lookups();
    for _ in 0..3 {
        cluster.get(CLIENT, "doc", &[]).unwrap();
    }
    assert_eq!(decisions("evaluations"), 1);
    assert_eq!(decisions("hits"), 2);
    cluster
        .put(CLIENT, "doc.log", log(CLIENT), None, None, &[])
        .unwrap();
    for _ in 0..2 {
        cluster.get(CLIENT, "doc", &[]).unwrap();
    }
    let counts = ["evaluations", "hits", "stale", "entries"].map(decisions);
    assert_eq!(counts, [2, 3, 1, 1]);
    // Every read still looked its policy up in the cache.
    assert_eq!(lookups() - lookups_before, 5);
}

/// A hot group's name is its clients' key prefix, so it may hold a `/` or
/// a space. Listed escaped, each name is one path segment: a flat line
/// keeps its two fields, and the name resolves back through REST.
#[test]
fn every_listed_hot_group_resolves_back() {
    let cluster = build(1, 0);
    for key in ["a/b.x", "c d.x"] {
        put(&cluster, key);
    }
    let listing = stats(&cluster, "groups/hot?flat").unwrap();
    let mut names = Vec::new();
    for line in listing.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let [name, ops] = fields[..] else {
            panic!("{line:?} is not one `name value` pair");
        };
        let served = stats(&cluster, &format!("groups/hot/{name}"));
        assert_eq!(served, Some(format!("{ops}\n")), "groups/hot/{name}");
        names.push(name);
    }
    names.sort_unstable();
    assert_eq!(names, ["a%2Fb", "c%20d"]);
}

/// `flat` alone and `flat=1` render flat, `flat=0` renders the tree, and
/// any other `flat`, or a `top` that is not a number, is a bad request.
#[test]
fn stats_queries_are_parsed_strictly() {
    let cluster = build(1, 0);
    put(&cluster, "q.obj");
    let tree = stats(&cluster, "ops/put").unwrap();
    assert!(tree.contains("count = 1\n"), "{tree}");
    assert_eq!(stats(&cluster, "ops/put?flat=0").unwrap(), tree);
    let flat = stats(&cluster, "ops/put?flat").unwrap();
    assert!(flat.contains("count 1\n"), "{flat}");
    assert_eq!(stats(&cluster, "ops/put?flat=1").unwrap(), flat);
    assert_eq!(stats(&cluster, "groups/hot?top=16&flat").unwrap(), "q 1\n");
    for query in ["top=abc", "top=", "top=-1", "flat=2", "flat=true"] {
        let response = cluster.handle(
            CLIENT,
            ClientRequest::new(RestRequest::new(
                RestMethod::Stats,
                format!("groups/hot?{query}"),
            )),
        );
        assert_eq!(response.status, RestStatus::BadRequest, "?{query}");
    }
}

/// The paths the benchmark's trace reads through a reader that turns a
/// missing path into 0 stay numeric leaves, and on a quiescent cluster
/// REST dispatch, which renders only the group a path's first segment
/// names, serves every leaf of the whole tree with the tree's value. The
/// shape is the benchmark's `cluster_repl_1k` (4 controllers, one backup
/// each) with one migration in flight.
#[test]
fn the_benchmarks_paths_resolve_and_rest_serves_every_leaf() {
    let mut config = ClusterConfig::sgx_simulator(4, 1);
    config.backups_per_partition = 1;
    let cluster = ControllerCluster::new(config).unwrap();
    cluster.register_client(CLIENT);
    for i in 0..64 {
        put(&cluster, &format!("pin{i}.obj"));
    }
    // Strand a migration: with every primary's drive offline, the split's
    // drain cannot settle and its record stays in flight.
    for controller in cluster.controllers() {
        for drive in controller.store().drives().iter() {
            drive.set_online(false);
        }
    }
    assert!(cluster.add_controller().is_err());
    assert_eq!(leaf(&cluster, "migrations/active"), 1);

    // (a) Each path the trace reads is a numeric leaf, in the tree and
    // through REST.
    let tree = cluster.stats_tree(0);
    let mut paths: Vec<String> = (0..cluster.partition_count())
        .flat_map(|i| {
            ["appended", "stalls", "lag"].map(|n| format!("partitions/{i}/replication/{n}"))
        })
        .collect();
    paths.extend(
        ["demand_pull_retries", "settle_retries", "request_retries"]
            .map(|n| format!("retries/{n}")),
    );
    for path in &paths {
        assert!(tree.u64_at(path).is_some(), "{path} is not a numeric leaf");
        leaf(&cluster, path);
    }

    // (b) Quiescent: every backup caught up, and two renders agree.
    // `digests/compressions` is process-wide (this binary's other tests
    // hash beside this one), so it is left out.
    let varies = |path: &str| path == "digests/compressions";
    let settled = || -> Vec<String> {
        let flat = cluster.stats_tree(0).render_flat();
        flat.lines()
            .filter(|line| !varies(line.split_once(' ').unwrap().0))
            .map(str::to_string)
            .collect()
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let lagging = |i| leaf(&cluster, &format!("partitions/{i}/replication/lag")) > 0;
    while (0..cluster.partition_count()).any(lagging) || settled() != settled() {
        assert!(std::time::Instant::now() < deadline, "never quiescent");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let leaves = settled();
    assert!(leaves.len() > 200, "{} leaves", leaves.len());
    for line in &leaves {
        let (path, value) = line.split_once(' ').unwrap();
        let served = stats(&cluster, path).unwrap_or_else(|| panic!("{path} did not resolve"));
        assert_eq!(served, format!("{value}\n"), "{path}");
    }
}
