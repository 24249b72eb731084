"""Which stlinfer functions the traced run wraps, and how spans become
the per-layer metrics.

Each `_s` metric is self time: a span's duration minus the time of the
spans it caused.  Set-up metrics are seconds per set-up repetition; every
other metric is per operation (one train or one eval), averaged over the
traced operations so that the layers add up to the operation's mean wall
time.
"""

from __future__ import annotations


def _tape_nodes(tracer, args, result):
    nodes = getattr(args[0], "nodes", None)
    if nodes is None:
        tracer.absent["stlinfer.autodiff.Tape.nodes"] = "tape has no node list"
        return
    tracer.count("autodiff.tape_nodes", len(nodes))


def _pruning_trial(tracer, args, result):
    # simplify() calls _wrong_count once for its baseline, then once per
    # removal it tries; a removal is kept when the count is unchanged.
    first = tracer.first_value(tracer.parent_index(), result)
    if first is None:
        return
    tracer.count("trainer.simplify_trials")
    if result == first:
        tracer.count("trainer.simplify_kept")


# (defining module, qualified name, span name, probe, record a span)
TARGETS = [
    ("stlinfer.datasets", "gen_driving", "datasets.generate", None, True),
    ("stlinfer.datasets", "gen_driving_pair", "datasets.generate", None, True),
    ("stlinfer.datasets", "gen_naval", "datasets.generate", None, True),
    ("stlinfer.datasets", "save_csv", "datasets.save_csv", None, True),
    ("stlinfer.datasets", "load_csv", "datasets.load_csv", None, True),
    ("stlinfer.network", "lift_params", "network.lift", None, True),
    ("stlinfer.network", "slot_windows", "network.windows", None, True),
    ("stlinfer.network", "binarize_gates", "network.gates", None, True),
    ("stlinfer.network", "forward", "network.forward", None, True),
    ("stlinfer.network", "network_output", "network.network_output", None, True),
    ("stlinfer.network", "predicate_layer", "network.predicate", None, True),
    ("stlinfer.network", "temporal_layer", "network.temporal", None, True),
    ("stlinfer.network", "conjunction_layer", "network.conjunction", None, True),
    ("stlinfer.network", "disjunction_layer", "network.disjunction", None, True),
    ("stlinfer.autodiff", "Tape.backward", "autodiff.backward", _tape_nodes, True),
    ("stlinfer.trainer", "train", "trainer.train", None, True),
    ("stlinfer.trainer", "_Optimizer.step", "trainer.optimizer", None, True),
    ("stlinfer.trainer", "project_params", "trainer.project", None, True),
    ("stlinfer.trainer", "extract_formula", "trainer.extract", None, True),
    ("stlinfer.trainer", "simplify", "trainer.simplify", None, True),
    ("stlinfer.trainer", "_wrong_count", "trainer.pruning_trials", _pruning_trial, False),
    ("stlinfer.stl", "parse_formula", "stl.parse", None, True),
    ("stlinfer.stl", "satisfies", "stl.satisfies", None, True),
    ("stlinfer.stl", "mcr", "stl.mcr", None, True),
    ("stlinfer.evaluate", "load_model", "evaluate.load_model", None, True),
    ("stlinfer.evaluate", "network_mcr", "evaluate.network_mcr", None, True),
    ("stlinfer.evaluate", "sign_agreement", "evaluate.sign_agreement", None, True),
    ("stlinfer.evaluate", "emit_report", "evaluate.emit_report", None, True),
]


def _self(phase, *spans):
    return ("self", phase, spans)


def _calls(*spans):
    return ("calls", "op", spans)


def _count(key, *spans):
    return ("count", "op", (key,) + spans)


# metric name -> (unit, (how, phase, span names or count keys))
PER_LAYER = {
    "datasets.generate_s": ("s", _self("setup", "datasets.generate")),
    "datasets.save_csv_s": ("s", _self("setup", "datasets.save_csv")),
    "datasets.load_csv_s": ("s", _self("op", "datasets.load_csv")),
    "network.forward_calls": ("count", _calls("network.forward")),
    "network.predicate_s": ("s", _self("op", "network.predicate")),
    "network.windows_s": ("s", _self("op", "network.windows")),
    "network.gates_s": ("s", _self("op", "network.gates")),
    "network.lift_s": ("s", _self("op", "network.lift")),
    "network.temporal_s": ("s", _self("op", "network.temporal")),
    "network.conjunction_s": ("s", _self("op", "network.conjunction")),
    "network.disjunction_s": ("s", _self("op", "network.disjunction")),
    "network.forward_self_s": ("s", _self("op", "network.forward", "network.network_output")),
    "autodiff.backward_s": ("s", _self("op", "autodiff.backward")),
    "autodiff.backward_calls": ("count", _calls("autodiff.backward")),
    "autodiff.tape_nodes_per_sample": ("count", ("nodes", "op", ("autodiff.backward",))),
    "trainer.train_self_s": ("s", _self("op", "trainer.train")),
    "trainer.optimizer_s": ("s", _self("op", "trainer.optimizer")),
    "trainer.optimizer_steps": ("count", _calls("trainer.optimizer")),
    "trainer.project_s": ("s", _self("op", "trainer.project")),
    "trainer.extract_s": ("s", _self("op", "trainer.extract")),
    "trainer.simplify_s": ("s", _self("op", "trainer.simplify")),
    "trainer.simplify_trials": ("count", _count("trainer.simplify_trials", "trainer.pruning_trials")),
    "trainer.simplify_kept_ratio": ("ratio", ("kept", "op", ("trainer.pruning_trials",))),
    "stl.parse_s": ("s", _self("op", "stl.parse")),
    "stl.satisfies_calls": ("count", _calls("stl.satisfies")),
    "stl.satisfies_s": ("s", _self("op", "stl.satisfies")),
    "stl.mcr_s": ("s", _self("op", "stl.mcr")),
    "evaluate.load_model_s": ("s", _self("op", "evaluate.load_model")),
    "evaluate.network_mcr_s": ("s", _self("op", "evaluate.network_mcr")),
    "evaluate.sign_agreement_s": ("s", _self("op", "evaluate.sign_agreement")),
    "evaluate.emit_report_s": ("s", _self("op", "evaluate.emit_report")),
}


def layer_metrics(tracer, samples_per_op: int):
    """Per-layer values plus {metric: [missing functions]} for absent ones.

    An absent metric reads 0; `samples_per_op` is N x epochs of one train
    operation (0 when the workload does not train).
    """
    missing_by_span: dict = {}
    for module, qualname, span, _, _ in TARGETS:
        target = f"{module}.{qualname}"
        if target in tracer.absent:
            missing_by_span.setdefault(span, []).append(target)
    values, absent = {}, {}
    for metric, (unit, (how, phase, keys)) in PER_LAYER.items():
        missing = sorted({t for k in keys for t in missing_by_span.get(k, [])})
        if how == "nodes" and "stlinfer.autodiff.Tape.nodes" in tracer.absent:
            missing.append("stlinfer.autodiff.Tape.nodes")
        if missing:
            absent[metric] = missing
            values[metric] = (0.0, unit)
            continue
        roots = max(tracer.roots[phase], 1)
        if how == "self":
            v = sum(tracer.self_s[(phase, s)] for s in keys) / roots
        elif how == "calls":
            v = sum(tracer.counts[(phase, s)] for s in keys) / roots
        elif how == "count":
            v = tracer.counts[(phase, keys[0])] / roots
        elif how == "nodes":
            total = samples_per_op * tracer.roots[phase]
            v = tracer.counts[(phase, "autodiff.tape_nodes")] / total if total else 0.0
        else:  # kept
            trials = tracer.counts[(phase, "trainer.simplify_trials")]
            v = tracer.counts[(phase, "trainer.simplify_kept")] / trials if trials else 0.0
        values[metric] = (v, unit)
    return values, absent


def op_layer_sum(values) -> float:
    """Sum of the per-operation self-time metrics: with the benchmark's
    own glue this is the traced operation's mean wall time."""
    return sum(
        values[metric][0]
        for metric, (unit, (_, phase, _)) in PER_LAYER.items()
        if unit == "s" and phase == "op"
    )
