"""Fingerprint the seeded training runs of the criterion-8 experiment.

For each seed given on the command line, runs ``run_link_prediction`` on the
criterion-8 graph (SBM, n=250, 5 blocks, p=0.25, q=0.015, 32 features, graph
seed 42; ``k=1``, ``metric="ricci"``, 300 epochs, patience 100), topology
variant then ablated variant, and prints one line per run::

    <seed> <variant> <sha256> epochs=<n> best_epoch=<n> test_auc=<float>

The hash covers the history, the test AUC, the best epoch and every
parameter in ``PARAM_KEYS`` order, so two checkouts that print the same
hashes trained bit-identical models. Seeded bytes depend on the BLAS thread
count of older checkouts, so pin it when comparing::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/seeded_hashes.py 0 1 2
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

import homolink as hl
from homolink.model import PARAM_KEYS, TrainConfig


def result_hash(result) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(result.history, dtype=float).tobytes())
    h.update(np.float64(result.test_auc).tobytes())
    h.update(np.int64(result.best_epoch).tobytes())
    for key in PARAM_KEYS:
        h.update(np.ascontiguousarray(result.state.params[key]).tobytes())
    return h.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    g = hl.sbm_generate(250, 5, 0.25, 0.015, 32, seed=42)
    for seed in args.seeds:
        for variant, ablate in (("topology", False), ("ablated", True)):
            config = TrainConfig(epochs=300, patience=100, seed=seed)
            result = hl.run_link_prediction(
                g, k=1, metric="ricci", config=config, ablate_topology=ablate
            ).train_result
            print(
                f"{seed} {variant} {result_hash(result)} epochs={len(result.history)} "
                f"best_epoch={result.best_epoch} test_auc={result.test_auc:.6f}",
                flush=True,
            )


if __name__ == "__main__":
    main()
