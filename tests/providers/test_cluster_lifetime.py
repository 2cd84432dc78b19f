"""A dropped deployment is freed by reference counting alone.

The health tracker's and breaker board's clocks read the cluster's
network.  Closing over the cluster instead would make a reference cycle
(cluster -> tracker -> clock -> cluster), so a dropped cluster and its
share store would linger until the cyclic collector ran, and a rebuilt
deployment would hold two share stores at once.  With the collector
disabled, the last reference going must free both the cluster and its
data source.
"""

import gc
import weakref

import pytest

from repro import DataSource, ProviderCluster
from repro.workloads.employees import employees_table, managers_table

EMPLOYEES = employees_table(60, seed=5)
MANAGERS = managers_table(EMPLOYEES, 0.2, seed=5)


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("breakers", [False, True])
def test_used_deployment_dies_with_its_last_reference(collector_off, breakers):
    cluster = ProviderCluster(5, 3)
    if breakers:
        cluster.install_breakers()
    source = DataSource(cluster, seed=5)
    source.outsource_table(EMPLOYEES)
    source.outsource_table(MANAGERS)
    source.sql("SELECT name FROM Employees WHERE salary > 20000")
    source.sql("SELECT COUNT(*) FROM Managers")
    cluster_ref, source_ref = weakref.ref(cluster), weakref.ref(source)
    del cluster, source
    assert cluster_ref() is None
    assert source_ref() is None
