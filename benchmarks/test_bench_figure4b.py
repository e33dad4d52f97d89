"""Benchmark / reproduction of Figure 4b: impact of network policies."""

from __future__ import annotations

from bench_harness import run_once

from repro.experiments import run_netpol_impact


def test_figure4b_network_policy_impact(benchmark, full_evaluation_result):
    applications = full_evaluation_result.applications()
    result = run_once(benchmark, run_netpol_impact, applications=applications)

    print("\n" + "=" * 78)
    print("Figure 4b - impact of network policies on endpoint reachability (reproduced)")
    print("=" * 78)
    print(result.format_text())

    rows = {row.dataset: row for row in result.rows()}

    # Banzai Cloud ships no network policies at all (not reported in the paper's table).
    assert rows["Banzai Cloud"].policies_defined == 0
    # Policy-defining chart counts follow the paper: Bitnami 48, CNCF 4, EEA 19,
    # Prometheus Community 5, Wikimedia 25.
    assert rows["Bitnami"].policies_defined == 48
    assert rows["CNCF"].policies_defined == 4
    assert rows["EEA"].policies_defined == 19
    assert rows["Prometheus C."].policies_defined == 5
    assert rows["Wikimedia"].policies_defined == 25
    # Shape of the reachability outcome: enabling the shipped policies does not
    # remedy the misconfigurations for several charts in most datasets, while
    # CNCF charts end up fully isolated (affected = 0 in the paper).
    assert rows["CNCF"].affected == 0
    for dataset in ("Bitnami", "EEA", "Prometheus C.", "Wikimedia"):
        assert rows[dataset].affected > 0, f"{dataset} should remain affected"
        assert rows[dataset].reachable_pods >= rows[dataset].affected
    # Reachable pod endpoints outnumber reachable service endpoints (Section 4.3.2).
    total_pods = sum(row.reachable_pods for row in rows.values())
    total_services = sum(row.reachable_services for row in rows.values())
    assert total_pods > total_services
