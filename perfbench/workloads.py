"""The benchmark's workloads: what each runs through ``hubnet.cli.main``, and why.

Every workload is a closed loop with one client: the next ``cli.main``
call starts only after the previous one returned.  Each workload fixes its
worker jobs and BLAS threads, because the BLAS thread count changes result
bits; ``run.py`` refuses a workload whose jobs times BLAS threads exceed
the CPUs the process may run on.

The two workloads BENCHMARK.json lists run one thread of work (one job,
one BLAS thread), which leaves the second CPU of a 2-vCPU host to
everything else.  With two busy threads an op also waits for the other
one: for the interpreter lock, which ``--jobs 2`` workers trade at every
harvest step, or for the slower thread of a 2-thread BLAS call.  mg-n500
at ``--jobs 2`` spread 0.25 to 0.27 of the median in op_s_p50 over ten
seeds on such a host, past the largest bound a metric may have.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_MODELS = "esn,hubesn,hubesn-rand"
# fixed seed of the reference block each run checks against reference.json;
# the block runs every model once
REFERENCE_SEED = 20230705
# reference tolerances: numerically equivalent changes (another BLAS thread
# count, eigvals for power iteration, a reordered sum) stay inside them
RMSE_RTOL = 1e-5
ACCURACY_ATOL = 0.01  # two of the 200 test images
MODULARITY_ATOL = 1e-6
# networkx and hubnet sum the same modularity terms in different orders
NX_MODULARITY_ATOL = 1e-9
MNIST_IMAGES = 1200


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "trials": ``hubnet bench`` blocks; "graph": gen + metrics pairs
    jobs: int
    blas_threads: int
    # ops the measured phase completes even past --seconds; the quality
    # metric is taken over exactly these, so it repeats for a given seed
    min_ops: int
    task: str = ""
    n: int = 500
    n_train: int = 0
    n_test: int = 0
    repeats: int = 1
    # sanity limit on each op's score: RMSE below it, or accuracy above it
    score_limit: float = 0.0
    density: float = 0.2

    def bench_argv(self, seed: int, out_csv: str, mnist=None,
                   repeats: int | None = None) -> list[str]:
        argv = ["bench", "--task", self.task, "--n", str(self.n),
                "--n-train", str(self.n_train), "--n-test", str(self.n_test),
                "--models", ALL_MODELS, "--jobs", str(self.jobs),
                "--repeats", str(self.repeats if repeats is None else repeats),
                "--seed", str(seed), "--out", out_csv]
        if mnist is not None:
            argv += ["--mnist-images", str(mnist[0]), "--mnist-labels", str(mnist[1])]
        return argv

    def gen_argv(self, seed: int, net_path: str) -> list[str]:
        return ["gen", "--n", str(self.n), "--density", str(self.density),
                "--seed", str(seed), "--out", net_path]

    @staticmethod
    def metrics_argv(net_path: str, degrees_path: str) -> list[str]:
        return ["metrics", "--in", net_path, "--degrees-out", degrees_path]

    def score_ok(self, score: float) -> bool:
        if self.task == "mnist":
            return self.score_limit < score <= 1.0
        return 0.0 < score < self.score_limit

    @property
    def quality(self) -> str:
        if self.kind == "graph":
            return "modularity_mean"
        return "accuracy_mean" if self.task == "mnist" else "rmse_geomean"


# BENCHMARK.json gives the reason for each workload it lists.  The last
# two are run by suite.py but not listed there: in ten-seed sets of 30 s
# runs on a 2-vCPU Xeon VM, before the calibration kernel, graph-n500
# spread 0.16 and 0.19 of the median in ops_per_s and op_s_p50 and
# narma-n1500 0.34 and 0.27, at or past the largest bound a metric may
# have.
WORKLOADS = {w.name: w for w in (
    Workload(name="mg-n500", kind="trials", task="mackey-glass", n=500,
             n_train=1200, n_test=2000, jobs=1, blas_threads=1, repeats=2, min_ops=6,
             score_limit=1e-2),
    Workload(name="mnist-synth", kind="trials", task="mnist", n=500,
             n_train=1000, n_test=200, jobs=1, blas_threads=1, min_ops=3,
             score_limit=0.3),
    # gen then metrics: Louvain and the JSON network format, no reservoir
    # code.  Louvain takes 1.0 s to 2.7 s per network depending on the
    # seed, and pure-Python code drifts with the load on the machine.
    Workload(name="graph-n500", kind="graph", n=500, jobs=1, blas_threads=2,
             min_ops=4),
    # a large reservoir with a short series, where spectral_radius and
    # generation dominate.  Power iteration takes 1.3 s to 15 s per
    # n = 1500 matrix depending on the seed.
    Workload(name="narma-n1500", kind="trials", task="narma10", n=1500,
             n_train=300, n_test=300, jobs=1, blas_threads=2, min_ops=3,
             score_limit=0.2),
)}


def block_seed(seed: int, block: int) -> int:
    """Seed of the block-th cli call of a run with workload seed ``seed``."""
    return seed * 1000 + block
