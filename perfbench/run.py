"""condcnn benchmark: the `train` and `segment`/`analyze` flows, measured
from outside through the library calls the CLI makes.

    python3 perfbench/run.py --workload wisdm-n8 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

Run it from the root of a checkout. `--trace 0` prints the end-to-end
metrics; `--trace 1` installs span wrappers and prints the per-layer
metrics instead. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when every
operation and correctness check passed. See perfbench/README.md.
"""

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(WORK, "results")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
# Relative tolerance for the default-seed reference values.
REFERENCE_RTOL = 1e-7
# Criterion 2's tolerance for condconv_forward vs condconv_as_sum.
EQUIV_RTOL, EQUIV_ATOL = 1e-10, 1e-12
# The memory guard refuses any measurement predicted above this share of
# MemAvailable.
MEMORY_CAP_SHARE = 0.5
# Set-up repeats (3 to 9 times) while under this share of --seconds.
SETUP_SHARE = 0.1
PROBE_TRAIN_WINDOWS = 32  # pamap2-analyze trains on this many windows only


def _pin_threads():
    for var in BLAS_VARS:
        os.environ[var] = "1"


def blas_threads():
    """Thread count the loaded BLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """Commit of the checkout from .git, without running git; "unknown"
    outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def mem_available_mb():
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20


def environment(seed, workload):
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_commit": git_commit(),
        "mem_available_mb": round(mem_available_mb(), 1),
        "valid": threads == 1,
    }


class Bench:
    """One workload run: its inputs, the program modules, and the tally of
    attempted and failed operations."""

    def __init__(self, workload, seed, seconds, trace):
        from condcnn import (analysis, archspec, autodiff, cli, condconv, data,
                             layers, storage, training)
        from workloads import make_inputs

        self.mods = {
            "autodiff": autodiff, "condconv": condconv, "layers": layers,
            "training": training, "archspec": archspec, "data": data,
            "storage": storage, "analysis": analysis, "cli": cli,
        }
        self.wl, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = os.path.join(WORK, f"{workload.name}-seed{seed}-trace{trace}")
        self.config_path, self.rows = make_inputs(workload, seed, SRC, self.dir)
        self.attempted = self.failed = 0
        self.metrics = {}
        self.derived = {}
        self.checks = []
        self.cap_mb = MEMORY_CAP_SHARE * mem_available_mb()

    # -- bookkeeping -----------------------------------------------------------
    def check(self, label, ok, detail=""):
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"check": label, "ok": bool(ok), "detail": detail})
        print(f"check {'ok  ' if ok else 'FAIL'} {label} {detail}".rstrip(), flush=True)
        return ok

    def guarded(self, label, fn, *args, operations=1):
        """Run one counted operation; an exception counts as failed."""
        self.attempted += operations
        try:
            return fn(*args)
        except Exception:  # the benchmark reports every failure and goes on
            self.failed += operations
            print(f"FAIL {label}", file=sys.stderr)
            traceback.print_exc()
            return None

    # -- the program's flows -------------------------------------------------
    def setup(self):
        """Config -> datasets on disk -> model, as `condcnn train` does; for
        the analyze workload it ends with a checkpoint save and load."""
        cli, dp = self.mods["cli"], self.mods["data"]
        archspec, training = self.mods["archspec"], self.mods["training"]
        config = cli.load_run_config(self.config_path)
        dcfg = config["dataset"]
        profile = dp.DatasetProfile.from_dict(dcfg)
        stream = dp.ingest_canonical(dcfg["canonical_csv"])
        if profile.resample_to_hz:
            stream = dp.resample(stream, profile.resample_to_hz)
        windows = dp.segment_windows(stream, profile)
        train_ds, test_ds = dp.split(windows, profile, seed=config["seed"])
        train_ds, stats = dp.normalize(train_ds, profile.normalization)
        test_ds, _ = dp.normalize(test_ds, profile.normalization, stats=stats)
        run_dir = os.path.join(self.dir, config["output_dir"])
        train_ds.save(os.path.join(run_dir, "train.ds"))
        test_ds.save(os.path.join(run_dir, "test.ds"))
        spec = archspec.spec_from_dict(dict(config["model"]))
        model = archspec.build_model(
            spec, (train_ds.window_len, train_ds.n_channels), dcfg["classes"],
            seed=config["seed"])
        if not self.wl.trains:
            ckpt = os.path.join(run_dir, "model.ckpt")
            training.save_checkpoint(ckpt, model)
            model, _ = training.load_checkpoint(ckpt)
        return {"config": config, "train": train_ds, "test": test_ds, "model": model,
                "run_dir": run_dir}

    def train_call(self, state, model, train_ds):
        training = self.mods["training"]
        config = state["config"]
        cfg = training.TrainConfig(
            batch_size=self.wl.batch, epochs=config["train"]["epochs"],
            lr_schedule=training.schedule_from_dict(config["train"]["lr_schedule"]),
            seed=config["seed"], checkpoint_dir=state["run_dir"],
        )
        steps = -(-len(train_ds) // cfg.batch_size) * cfg.epochs
        before = [p.data.copy() for p in model.params()]
        gc.collect()
        start = time.perf_counter()
        history = self.guarded("train", training.train, model, train_ds, state["test"], cfg,
                               operations=steps + cfg.epochs)
        elapsed = time.perf_counter() - start
        if history is None:
            return None, None
        losses = [row[2] for row in history.rows]
        self.check("train did not halt and every epoch loss is finite",
                   not history.halted and len(losses) == cfg.epochs
                   and all(map(math.isfinite, losses)), f"losses={losses}")
        # a one-epoch call's loss precedes its last Adam step; the size of
        # the call's weight update shows every step
        update_norm = math.sqrt(sum(float(((p.data - b) ** 2).sum())
                                    for p, b in zip(model.params(), before)))
        return cfg.epochs * len(train_ds) / elapsed, (history, update_norm)

    def eval_call(self, state, model):
        gc.collect()
        start = time.perf_counter()
        result = self.guarded("evaluate", self.mods["training"].evaluate, model, state["test"])
        elapsed = time.perf_counter() - start
        return (None if result is None else len(state["test"]) / elapsed), result

    def routing_call(self, state, model):
        analysis = self.mods["analysis"]

        def both():
            stats = analysis.routing_stats(model, state["test"])
            return stats, analysis.depth_divergence(stats)
        gc.collect()
        start = time.perf_counter()
        result = self.guarded("routing_stats", both)
        elapsed = time.perf_counter() - start
        return (None if result is None else len(state["test"]) / elapsed), result

    def rounds(self, calls):
        """Run rounds of `calls`, (metric, call) pairs, at least two and then
        while --seconds is closer to one round more than to stopping.
        Interleaving train, evaluate and routing calls lets every metric
        sample the whole run, not one stretch of the machine's drifting
        speed. Returns per metric its values and its first call's result."""
        values = {metric: [] for metric, _ in calls}
        firsts = {}
        done, spent = 0, 0.0
        while done < 2 or spent + spent / done / 2 <= self.seconds:
            start = time.perf_counter()
            for metric, call in calls:
                value, result = call()
                if value is None:
                    return values, firsts
                values[metric].append(value)
                firsts.setdefault(metric, result)
            spent += time.perf_counter() - start
            done += 1
        return values, firsts

    # -- memory ------------------------------------------------------------------
    def probe_model(self, state):
        archspec = self.mods["archspec"]
        config, ds = state["config"], state["train"]
        return archspec.build_model(
            archspec.spec_from_dict(dict(config["model"])),
            (ds.window_len, ds.n_channels), config["dataset"]["classes"],
            seed=config["seed"])

    def train_step_peak(self, model, adam, ds, batch):
        """tracemalloc peak (MB) of one training step at `batch`, above what
        was allocated before it."""
        import numpy as np

        ad = self.mods["autodiff"]
        x, y = ds.x[:batch], ds.y[:batch]
        rng = np.random.default_rng(self.seed)
        model.train()
        gc.collect()
        tracemalloc.start()
        try:
            model.zero_grad()
            loss = ad.softmax_cross_entropy(model.logits(ad.Tensor(x), rng=rng), y)
            loss.backward()
            adam.step(1e-4)
            del loss
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def eval_peak(self, model, ds, batch):
        import numpy as np

        part = ds.subset(np.arange(batch))
        gc.collect()
        tracemalloc.start()
        try:
            self.mods["training"].evaluate(model, part)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def ladder(self, kind, measure, sizes):
        """Measure peaks at the two smaller sizes, predict the largest one
        from them, and measure it only if the prediction is under the cap
        (and this is the end-to-end run). Returns (peak, slope, intercept)
        at the largest size, or None where it was not measured."""
        a, b, full = sizes
        peak_a = self.guarded(f"{kind} peak at batch {a}", measure, a)
        peak_b = self.guarded(f"{kind} peak at batch {b}", measure, b)
        if peak_a is None or peak_b is None:
            return None
        slope = (peak_b - peak_a) / (b - a)
        predicted = peak_b + slope * (full - b)
        ok = self.check(f"memory guard: {kind} at batch {full} predicted under cap",
                        predicted <= self.cap_mb,
                        f"predicted={predicted:.1f}MB cap={self.cap_mb:.1f}MB")
        if not ok or self.trace:
            return None if not ok else (None, slope, peak_b - slope * b)
        peak = self.guarded(f"{kind} peak at batch {full}", measure, full)
        if peak is None:
            return None
        self.check(f"{kind} peak at batch {full} under cap", peak <= self.cap_mb,
                   f"peak={peak:.1f}MB")
        slope = (peak - peak_b) / (full - b)
        return peak, slope, peak - slope * full

    def memory(self, state):
        """Memory probes on a model of its own, before any timed phase, so
        the guard runs before the workload's full batch is ever used.
        Returns whether the train and eval batches may run."""
        training = self.mods["training"]
        model = self.probe_model(state)
        adam = training.Adam(model.named_params())
        batch, n_test = self.wl.batch, len(state["test"])
        train = self.ladder(
            "train step", lambda b: self.train_step_peak(model, adam, state["train"], b),
            (batch // 8, batch // 4, batch))
        evaluated = self.ladder(
            "evaluate", lambda b: self.eval_peak(model, state["test"], b),
            (n_test // 4, n_test // 2, n_test))
        if train is not None:
            peak, slope, intercept = train
            self.derived["train_peak_forecast_mb_at_shipped_batch"] = (
                self.wl.shipped_batch, intercept + slope * self.wl.shipped_batch)
            if peak is not None:
                self.metrics["train_peak_mb"] = peak
                self.metrics["train_mb_per_ex"] = slope
        if evaluated is not None and evaluated[0] is not None:
            self.metrics["eval_peak_mb"], self.metrics["eval_mb_per_ex"] = evaluated[:2]
        return train is not None, evaluated is not None

    # -- correctness -----------------------------------------------------------
    def check_condconv(self, state, model):
        """condconv_forward == condconv_as_sum on two real windows, at the
        input each CondConv layer sees."""
        import numpy as np

        cc = self.mods["condconv"]
        x = self.mods["autodiff"].Tensor(state["test"].x[:2])
        was_training = model.training
        model.eval()
        try:
            for layer in model.layers[:-1]:
                conv = layer.conv if isinstance(layer, cc.PointwiseCondConvHead) else layer
                if isinstance(conv, cc.CondConv):
                    fast = cc.condconv_forward(x, conv, activation=None).data
                    oracle = cc.condconv_as_sum(x, conv, activation=None).data
                    self.check(f"condconv_forward == condconv_as_sum on {layer.name}",
                               np.allclose(fast, oracle, rtol=EQUIV_RTOL, atol=EQUIV_ATOL),
                               f"max_abs_diff={float(np.abs(fast - oracle).max()):.3g}")
                x = layer.forward(x)
        finally:
            if was_training:
                model.train()

    def check_outputs(self, state, model, eval_result, routing):
        import numpy as np

        cc = self.mods["condconv"]
        if eval_result is not None:
            total = int(eval_result.confusion.sum())
            self.check("confusion matrix sums to the test windows",
                       total == len(state["test"]), f"{total} vs {len(state['test'])}")
        if routing is not None:
            layers = {layer.name: layer for layer in model.layers}
            for name, stats in routing[0].per_layer.items():
                layer = layers[name]
                conv = layer.conv if isinstance(layer, cc.PointwiseCondConvHead) else layer
                a = stats.alphas
                if conv.pin_routing:
                    self.check(f"pinned routing weights are 1 on {name}", np.all(a == 1.0))
                elif conv.routing_activation == "sigmoid":
                    self.check(f"sigmoid routing weights lie in (0, 1) on {name}",
                               bool(np.all((a > 0) & (a < 1))),
                               f"min={a.min():.3g} max={a.max():.3g}")
        self.check_condconv(state, model)

    def check_reference(self, observed):
        """On seed 0, per-epoch train loss and accuracies and the weight
        update of the first train call must match reference.json."""
        print(f"reference values observed: {json.dumps(observed)}")
        if self.seed != 0:
            return
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            expected = json.load(fh).get(self.wl.name, {})
        for key, values in observed.items():
            want = expected.get(key)
            ok = want is not None and len(want) == len(values) and all(
                abs(v - w) <= REFERENCE_RTOL * max(abs(w), 1e-12)
                for v, w in zip(values, want))
            self.check(f"seed-0 reference {key}", ok, f"observed={values} expected={want}")

    # -- runs ----------------------------------------------------------------------
    def run(self):
        import numpy as np

        env = environment(self.seed, self.wl.name)
        print(f"env: {json.dumps(env, sort_keys=True)}", flush=True)
        self.check("BLAS runs one thread", env["valid"], f"blas_threads={env['blas_threads']}")
        if self.trace:
            return self.run_traced(env)

        times, state = [], None
        while len(times) < 3 or (
                len(times) < 9 and sum(times) < SETUP_SHARE * self.seconds):
            state = None  # free the previous set-up's model first
            gc.collect()
            start = time.perf_counter()
            state = self.guarded("setup", self.setup)
            if state is None:
                return env
            times.append(time.perf_counter() - start)
        self.metrics["setup_s"] = statistics.median(times)
        train_ok, eval_ok = self.memory(state)

        model = state["model"]
        train_ds = state["train"]
        if not self.wl.trains:
            train_ds = train_ds.subset(np.arange(PROBE_TRAIN_WINDOWS))
        train = ("train_ex_per_s", lambda: self.train_call(state, model, train_ds))
        analysis = [("eval_ex_per_s", lambda: self.eval_call(state, model)),
                    ("routing_ex_per_s", lambda: self.routing_call(state, model))] * 2
        if not (train_ok and eval_ok):  # the guard refused the full batch
            calls = analysis if eval_ok else []
        elif self.wl.trains:
            calls = [train] + analysis
        else:  # the first evaluate precedes any training
            calls = analysis + [train]
        values, firsts = self.rounds(calls) if calls else ({}, {})
        for metric, samples in values.items():
            if samples:
                self.metrics[metric] = statistics.median(samples)
                self.derived[f"{metric}_samples"] = samples
        reference = {}
        if not self.wl.trains and "eval_ex_per_s" in firsts:
            reference.update(self._reference(firsts["eval_ex_per_s"]))
        if "train_ex_per_s" in firsts:
            reference.update(self._reference(firsts["train_ex_per_s"]))
        eval_result, routing = firsts.get("eval_ex_per_s"), firsts.get("routing_ex_per_s")
        self.check_outputs(state, model, eval_result, routing)
        self.check_reference(reference)
        self.cost_model(state, model)
        return env

    def run_traced(self, env):
        """Per-layer run: one traced setup; the workload's main phase (train,
        or evaluate on the analyze workload) once untraced to warm up, once
        traced and once more untraced, the traced/untraced rate being the
        tracing overhead; then traced evaluate, routing and count_flops."""
        from spans import MODULES, Tracer

        tracer = Tracer()
        tracer.install(self.mods, self.rows)
        tracer.active = True
        tracer.run_id = "setup"
        state = self.guarded("setup", self.setup)
        if state is None:
            return env
        with tracer.paused():
            train_ok, eval_ok = self.memory(state)
        model, reference = state["model"], {}

        def main_phase():
            if self.wl.trains:
                return self.train_call(state, model, state["train"])
            return self.eval_call(state, model)
        rates, first = [], None
        if train_ok and eval_ok:
            with tracer.paused():
                _, first = main_phase()
            tracer.run_id = "train" if self.wl.trains else "evaluate"
            rates.append(main_phase()[0])
            with tracer.paused():
                rates.append(main_phase()[0])
            if first is not None:
                reference.update(self._reference(first))
        eval_result = routing = None
        if eval_ok:
            if self.wl.trains:
                tracer.run_id = "evaluate"
                _, eval_result = self.eval_call(state, model)
            tracer.run_id = "routing"
            _, routing = self.routing_call(state, model)
        tracer.run_id = "analysis"
        self.mods["analysis"].count_flops(model)
        tracer.active = False
        self.check_outputs(state, model, eval_result if self.wl.trains else first, routing)
        self.check_reference(reference)
        os.makedirs(RESULTS, exist_ok=True)
        span_path = os.path.join(RESULTS, f"{self.wl.name}-seed{self.seed}.spans.jsonl")
        tracer.write_spans(span_path)
        tracer.uninstall()
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(span_path, ROOT)}")
        if len(rates) == 2 and None not in rates:
            self.metrics.update(tracer.metrics(rates[0] / rates[1]))
            print("self seconds per layer: " + ", ".join(
                f"{m}={self.metrics[f'{m}.self_s']:.3f}" for m in MODULES))
        return env

    @staticmethod
    def _reference(result):
        """Reference values of a train call's (history, update norm) or of
        an evaluate result."""
        if isinstance(result, tuple):
            history, update_norm = result
            return {"train_loss": [row[2] for row in history.rows],
                    "test_accuracy": [row[3] for row in history.rows],
                    "update_norm": [update_norm]}
        return {"eval_accuracy": [result.accuracy]}

    def cost_model(self, state, model):
        """Cost-model cross-check: FLOPs per example against measured rates."""
        analysis, archspec = self.mods["analysis"], self.mods["archspec"]
        report = analysis.count_flops(model)
        spec = archspec.spec_from_dict(dict(model.meta["spec"], n_experts=1))
        base = archspec.build_model(spec, tuple(model.meta["input_shape"]),
                                    model.meta["n_classes"], seed=0)
        ratio = report.total_flops / analysis.count_flops(base).total_flops
        self.derived["flops_per_ex"] = report.total_flops
        self.derived["flops_ratio_vs_1_expert"] = ratio
        print(f"derived: count_flops {report.total_flops} FLOPs/example "
              f"({report.total_multiply_adds / 1e6:.1f} M MACs); "
              f"ratio vs 1 expert {ratio:.4f}")
        if "eval_ex_per_s" in self.metrics:
            rate = report.total_multiply_adds * self.metrics["eval_ex_per_s"] / 1e9
            self.derived["forward_gmac_per_s"] = rate
            print(f"derived: achieved forward rate {rate:.2f} GMAC/s "
                  f"(count_flops MACs x eval_ex_per_s)")
        forecast = self.derived.get("train_peak_forecast_mb_at_shipped_batch")
        if forecast:
            print(f"derived: predicted training peak at the recipe batch {forecast[0]}: "
                  f"{forecast[1]:.0f} MB (cap here {self.cap_mb:.0f} MB)")

    def result(self):
        units = metric_units("per_layer" if self.trace else "end_to_end")
        missing = sorted(set(units) - set(self.metrics))
        if missing:
            self.check("every metric measured", False, f"missing={missing}")
        metrics = {name: {"value": float(self.metrics[name]), "unit": units[name]}
                   for name in units if name in self.metrics}
        correct = self.failed == 0
        return {"correct": correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def metric_units(kind):
    """Metric name -> unit for "end_to_end" or "per_layer", as BENCHMARK.json
    declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_one(args):
    import shutil

    from workloads import WORKLOADS

    sys.path.insert(0, SRC)
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    try:
        env = bench.run()
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    result = bench.result()
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_share = {bench.failed / max(bench.attempted, 1):.6g} ratio "
          f"({bench.failed} of {bench.attempted} operations)")
    os.makedirs(RESULTS, exist_ok=True)
    record = dict(result, env=env, derived=bench.derived, checks=bench.checks,
                  seconds=args.seconds, trace=args.trace)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload in its own process, then the expert-cost comparison."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = {}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        path = os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{args.trace}.json")
        if os.path.exists(path):
            os.remove(path)  # never report a record of an earlier run
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                records[name] = json.load(fh)
    n8, cnn = records.get("wisdm-n8"), records.get("wisdm-cnn")
    if not args.trace and n8 and cnn:
        m8, m1 = n8["metrics"], cnn["metrics"]
        print("== wisdm-n8 vs wisdm-cnn (derived, not gated)")
        print(f"FLOPs ratio (count_flops): {n8['derived']['flops_ratio_vs_1_expert']:.4f}")
        if "train_ex_per_s" in m8 and "train_ex_per_s" in m1:
            print(f"training wall time per example ratio: "
                  f"{m1['train_ex_per_s']['value'] / m8['train_ex_per_s']['value']:.3f}")
        if "train_mb_per_ex" in m8 and "train_mb_per_ex" in m1:
            print(f"training memory per example ratio: "
                  f"{m8['train_mb_per_ex']['value'] / m1['train_mb_per_ex']['value']:.3f}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    _pin_threads()  # before numpy loads
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "condcnn", "__init__.py")):
        print(f"condcnn sources not found under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
