"""Full-report runner: every analysis of the paper in one call.

:func:`full_report` runs the complete analysis pipeline on a dataset and
returns a dictionary of results keyed by experiment id (table/figure number);
:func:`format_report` renders it as readable text.  The examples and the
EXPERIMENTS.md regeneration script are thin wrappers around these functions.

Shared derived data
-------------------
The figures reduce the same three streams, so :func:`full_report` derives
each shared intermediate once:

* results it passes down as optional arguments: the Fig. 2a traffic series
  to the Fig. 2c R/W ratio, the Fig. 7b per-user traffic to Fig. 7c and the
  user classes, the Fig. 12 RPC service times to the Fig. 13 scatter, and
  the whole report to the Table 1 findings (``precomputed``);
* data the dataset keeps per stream state (see
  :mod:`repro.trace.dataset`): the time span, the attack-free view, the
  distinct user and session ids, and one hourly bin-index column per stream,
  which Figs. 2a, 5, 6, 14 and 15 count through masks (Fig. 14's shard
  series keeps its own per-minute column).
"""

from __future__ import annotations

from typing import Any

from repro.core import (
    anomaly,
    burstiness,
    deduplication,
    file_dependencies,
    file_types,
    findings,
    load_balancing,
    node_lifetime,
    request_graph,
    rpc_performance,
    sessions,
    storage_workload,
    summary,
    user_activity,
    user_traffic,
    volumes,
)
from repro.trace.dataset import TraceDataset
from repro.trace.records import ApiOperation, NodeKind
from repro.util.units import DAY, HOUR, MB, format_bytes
from repro.whatif.economics import storage_economics

__all__ = ["full_report", "format_report"]


def full_report(dataset: TraceDataset) -> dict[str, Any]:
    """Run every analysis and key the results by table/figure id."""
    report: dict[str, Any] = {}
    report["table3"] = summary.trace_summary(dataset)
    report["fig2a"] = storage_workload.traffic_timeseries(dataset)
    report["fig2b"] = storage_workload.traffic_by_size_category(dataset)
    try:
        report["fig2c"] = storage_workload.rw_ratio_analysis(
            dataset, series=report["fig2a"])
    except ValueError:
        # Very small traces may not contain enough busy hours.
        report["fig2c"] = None
    report["updates"] = storage_workload.update_traffic_share(dataset)
    report["fig3ab"] = file_dependencies.file_dependencies(dataset)
    report["fig3b_downloads"] = file_dependencies.downloads_per_file(dataset)
    report["fig3c"] = node_lifetime.node_lifetimes(dataset)
    report["fig4a"] = deduplication.deduplication_analysis(dataset)
    report["fig4b"] = file_types.file_size_analysis(dataset)
    report["fig4c"] = file_types.category_shares(dataset)
    report["fig5"] = anomaly.detect_anomalies(dataset, family="session")
    report["fig6"] = user_activity.online_active_users(dataset)
    report["fig7a"] = user_activity.operation_counts(dataset)
    traffic = report["fig7b"] = user_traffic.per_user_traffic(dataset)
    try:
        report["fig7c"] = user_traffic.traffic_inequality(dataset,
                                                          traffic=traffic)
    except ValueError:
        # Tiny traces may contain no legitimate transfer traffic at all.
        report["fig7c"] = None
    report["user_classes"] = user_traffic.classify_users(dataset,
                                                         traffic=traffic)
    report["fig8"] = request_graph.build_transition_graph(dataset)
    try:
        report["fig9_upload"] = burstiness.burstiness_analysis(dataset, ApiOperation.UPLOAD)
        report["fig9_unlink"] = burstiness.burstiness_analysis(dataset, ApiOperation.UNLINK)
    except ValueError:
        report["fig9_upload"] = None
        report["fig9_unlink"] = None
    report["fig10"] = volumes.volume_contents(dataset)
    report["fig11"] = volumes.volume_type_distribution(dataset)
    if dataset.rpc:
        report["fig12"] = rpc_performance.rpc_service_times(dataset)
        report["fig13"] = rpc_performance.rpc_scatter(dataset,
                                                      times=report["fig12"])
        report["fig14_api"] = load_balancing.api_server_load(dataset)
        report["fig14_shards"] = load_balancing.shard_load(dataset)
    report["fig15"] = sessions.auth_activity(dataset)
    report["fig16"] = sessions.session_analysis(dataset)
    report["economics"] = storage_economics(dataset)
    report["table1"] = findings.compute_findings(dataset, precomputed=report)
    return report


def format_report(dataset: TraceDataset) -> str:
    """Render a human-readable summary of every analysis."""
    results = full_report(dataset)
    lines: list[str] = []
    lines.append("=" * 72)
    lines.append("UbuntuOne back-end trace analysis (reproduction)")
    lines.append("=" * 72)

    lines.append("\n-- Table 3: trace summary " + "-" * 40)
    lines.append(str(results["table3"]))

    fig2c = results["fig2c"]
    updates = results["updates"]
    lines.append("\n-- Section 5.1: storage workload " + "-" * 33)
    if fig2c is not None:
        lines.append(f"Median hourly R/W ratio: {fig2c.median:.2f} (paper: 1.14)")
    lines.append(f"Upload ops that are updates: {updates.operation_share:.1%} "
                 f"(paper: 10.1%); bytes: {updates.traffic_share:.1%} (paper: 18.5%)")

    fig4a = results["fig4a"]
    fig4b = results["fig4b"]
    lines.append(f"Files < 1 MB: {fig4b.fraction_below(1 * MB):.1%} (paper: 90%)")
    lines.append(f"Dedup ratio: {fig4a.byte_dedup_ratio:.3f} (paper: 0.171); "
                 f"contents without duplicates: {fig4a.fraction_without_duplicates:.1%}")

    fig3c = results["fig3c"]
    lines.append(f"Files deleted within 8h of creation: "
                 f"{fig3c.short_lived_share(NodeKind.FILE):.1%} (paper: 17.1%)")

    attacks = results["fig5"]
    lines.append(f"DDoS-like anomaly windows detected: {len(attacks)} (paper: 3)")

    lines.append("\n-- Section 6: user behaviour " + "-" * 37)
    fig6 = results["fig6"]
    low, high = fig6.active_share_range()
    lines.append(f"Active/online user share per hour: {low:.1%} - {high:.1%} "
                 f"(paper: 3.5% - 16.3%)")
    fig7c = results["fig7c"]
    if fig7c is not None:
        lines.append(f"Gini of per-user traffic: {fig7c.gini:.3f} (paper: ~0.895); "
                     f"top 1% share: {fig7c.top_1_percent_share:.1%} (paper: 65.6%)")
    classes = results["user_classes"]
    lines.append("User classes: "
                 f"occasional {classes.occasional:.1%}, upload-only {classes.upload_only:.1%}, "
                 f"download-only {classes.download_only:.1%}, heavy {classes.heavy:.1%}")
    fig8 = results["fig8"]
    lines.append(f"P(transfer follows transfer): {fig8.transfer_repeat_probability():.2f}")
    if results["fig9_upload"] is not None:
        lines.append(f"Upload inter-op power-law alpha: {results['fig9_upload'].alpha:.2f} "
                     f"(paper: 1.54); Unlink alpha: {results['fig9_unlink'].alpha:.2f} "
                     f"(paper: 1.44)")

    lines.append("\n-- Section 7: back-end performance " + "-" * 31)
    if "fig12" in results:
        fig13 = results["fig13"]
        ranges = rpc_performance.class_median_ranges(fig13)
        for rpc_class, (low_t, high_t) in sorted(ranges.items(), key=lambda kv: kv[1][0]):
            lines.append(f"  {rpc_class.value:<8} median service times: "
                         f"{low_t * 1000:.1f} - {high_t * 1000:.1f} ms")
        fig14 = results["fig14_shards"]
        lines.append(f"Shard load: short-window CV {fig14.short_window_imbalance():.2f}, "
                     f"whole-trace CV {fig14.long_term_imbalance():.3f} (paper: 0.049)")
    fig16 = results["fig16"]
    lines.append(f"Sessions < 8h: {fig16.share_shorter_than(8 * HOUR):.1%} (paper: 97%); "
                 f"< 1s: {fig16.share_shorter_than(1.0):.1%} (paper: 32%)")
    lines.append(f"Active sessions: {fig16.active_share:.1%} (paper: 5.57%); "
                 f"top-20% active sessions hold {fig16.top_sessions_share(0.2):.1%} of ops "
                 f"(paper: 96.7%)")

    economics = results["economics"]
    lines.append("\n-- Section 9: storage economics (what-if) " + "-" * 24)
    lines.append(f"Dedup keeps {format_bytes(economics.unique_upload_bytes)} "
                 f"of {format_bytes(economics.upload_bytes)} uploaded "
                 f"({economics.dedup_saving_share:.1%} saved; paper: ~17%)")
    lines.append(f"Upload bytes from updates: {economics.update_share:.1%} "
                 f"(paper: 18.5%; the delta-update lever)")
    lines.append(f"Cold candidates (idle > {economics.cold_after / DAY:g}d "
                 f"at trace end): "
                 f"{format_bytes(economics.cold_candidate_bytes)} "
                 f"({economics.cold_candidate_share:.1%} of unique bytes)")
    lines.append(f"Flat hot-tier bill ${economics.monthly_flat:.2f}/month; "
                 f"age-tiered ${economics.monthly_tiered:.2f}/month "
                 f"(full sweep: python -m repro whatif)")

    lines.append("\n-- Table 1: findings, paper vs measured " + "-" * 26)
    lines.append(results["table1"].format_table())
    return "\n".join(lines)
