"""The benchmark's table: one four-attribute engine, built from source data.

Every workload runs against the same table.  Its data and models come from
fixed seeds, so every run serves the same models; only the requests depend
on the workload seed.  One attribute per distance:

====  ==========  =========================  =================================
attr  distance    records                    index / serving
====  ==========  =========================  =================================
hm    Hamming     64-bit vectors             2 shards, one CardNet-A per shard
ed    edit        strings, 8 +- 2 chars      q-gram index, CardNet-A
jc    Jaccard     sets over 200 elements     prefix-filter index, CardNet-A
eu    Euclidean   32-d unit vectors          ball index, CardNet-A (65-point
                                             curve grid: no canonical grid)
====  ==========  =========================  =================================

:func:`build_table` is the measured set-up (``setup_s``): data generation,
labelling of the training queries, training, and registration with the
engine.  Ground truth for the correctness oracle is not part of it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core import CardNetEstimator
from repro.datasets import (
    Dataset,
    make_binary_dataset,
    make_set_dataset,
    make_string_dataset,
    make_vector_dataset,
)
from repro.distances import get_distance
from repro.engine import SimilarityQueryEngine
from repro.workloads import build_workload

#: Rows per attribute (every attribute of a table has the same row count).
NUM_ROWS = 10_000
#: Shards of the ``hm`` attribute and workers of the engine's execute pool:
#: no pool is wider than the 2 cores the benchmark is sized for.
HM_SHARDS = 2
EXECUTE_WORKERS = 2
#: Seed of the table's data and of every model's training; never the
#: workload seed, so all runs serve the same models.
TABLE_SEED = 20_200_614
ATTRIBUTES = ("hm", "ed", "jc", "eu")

#: Training recipe: few labelled queries and epochs keep set-up short.
TRAIN_QUERIES = 32
NUM_THRESHOLDS = 6
EPOCHS = 12
VAE_EPOCHS = 2
LEARNING_RATE = 3e-3


def make_datasets(num_rows: int = NUM_ROWS) -> Dict[str, Dataset]:
    """The four columns of the table, generated from :data:`TABLE_SEED`."""
    return {
        "hm": make_binary_dataset(
            num_records=num_rows, dimension=64, num_clusters=16,
            flip_probability=0.08, theta_max=16, seed=TABLE_SEED, name="hm",
        ),
        "ed": make_string_dataset(
            num_records=num_rows, num_clusters=64, base_length=8, length_jitter=2,
            max_mutations=4, theta_max=4, seed=TABLE_SEED + 1, name="ed",
        ),
        "jc": make_set_dataset(
            num_records=num_rows, num_clusters=32, universe_size=200,
            base_set_size=16, size_jitter=4, overlap=0.9, theta_max=0.5, seed=TABLE_SEED + 2,
            name="jc",
        ),
        "eu": make_vector_dataset(
            num_records=num_rows, dimension=32, num_clusters=16, cluster_std=0.05,
            theta_max=0.6, seed=TABLE_SEED + 3, name="eu",
        ),
    }


def train_estimator(dataset: Dataset) -> CardNetEstimator:
    """Label a few training queries and fit a CardNet-A on them."""
    workload = build_workload(
        dataset,
        query_fraction=1.0,
        max_queries=TRAIN_QUERIES,
        num_thresholds=NUM_THRESHOLDS,
        seed=TABLE_SEED,
    )
    estimator = CardNetEstimator.for_dataset(
        dataset, accelerated=True, epochs=EPOCHS, vae_pretrain_epochs=VAE_EPOCHS,
        learning_rate=LEARNING_RATE, seed=0,
    )
    return estimator.fit(workload.train, workload.validation)


def _shard_dataset(parent: Dataset, records, shard_index: int) -> Dataset:
    return Dataset(
        name=f"{parent.name}#shard{shard_index}",
        records=np.asarray(records, dtype=np.uint8),
        distance_name=parent.distance_name,
        theta_max=parent.theta_max,
        cluster_labels=np.zeros(len(records), dtype=np.int64),
        extra=dict(parent.extra),
    )


@dataclass
class Table:
    """The engine plus what the oracle and the workloads need to know."""

    engine: SimilarityQueryEngine
    datasets: Dict[str, Dataset]

    def theta_max(self, attribute: str) -> float:
        return float(self.datasets[attribute].theta_max)

    def integer_valued(self, attribute: str) -> bool:
        return get_distance(self.datasets[attribute].distance_name).integer_valued


def build_table(num_rows: int = NUM_ROWS) -> Table:
    """Data → labels → training → registration: the set-up ``setup_s`` times."""
    datasets = make_datasets(num_rows)
    hm = datasets["hm"]
    engine = SimilarityQueryEngine(execute_workers=EXECUTE_WORKERS)
    engine.register_sharded_attribute(
        "hm", hm.records, "hamming",
        lambda records, shard: train_estimator(_shard_dataset(hm, records, shard)),
        num_shards=HM_SHARDS,
        theta_max=hm.theta_max,
    )
    for attribute in ("ed", "jc", "eu"):
        dataset = datasets[attribute]
        engine.register_attribute(
            attribute, dataset.records, dataset.distance_name, train_estimator(dataset),
            theta_max=dataset.theta_max,
        )
    return Table(engine=engine, datasets=datasets)


def timed_setup(num_rows: int = NUM_ROWS) -> "tuple[Table, float]":
    """Build the table after a full collection; return it and the build time.

    Every build is identical (fixed seeds), so the spread of repeated build
    times is the measurement noise of ``setup_s``.
    """
    gc.collect()
    started = time.perf_counter()
    table = build_table(num_rows)
    return table, time.perf_counter() - started
