"""Per-layer timing of fusevit, taken from outside the program.

``Tracer.install`` replaces public functions at the module or class
attributes the program actually calls through (``fusevit.model.fuse``,
``fusevit.encoder.msa``, ``Tape.backward``, ...) with wrappers that record
one span per call: name, start, end, parent span, phase and a small note
(layer index, row count, tape length). Spans stay in memory until the run
ends; ``per_layer_metrics`` then derives self times and per-image figures
from them and ``write_spans`` saves them.

A hook whose attribute no longer exists is skipped and every metric that
needs it is reported absent, with the reason, instead of failing the run.
So is a metric the workload should record whose hook was never called,
as happens when a refactor routes around the attribute.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from pathlib import Path
from time import perf_counter


def _block_index(args, kwargs, _out):
    return kwargs["layer_index"] if "layer_index" in kwargs else args[3]


def _layer_and_rows(args, kwargs, _out):
    index = kwargs["layer_index"] if "layer_index" in kwargs else args[3]
    return [index, int(args[0].shape[0])]


def _tape_length(args, _kwargs, _out):
    return len(args[0])


# (module, attribute path, span name, note taken from args/kwargs/result)
HOOKS = [
    ("fusevit.model", "FuseVitModel.forward", "model.forward", None),
    ("fusevit.model", "FuseVitModel.plain_forward", "model.plain_forward", None),
    ("fusevit.model", "FuseVitModel.build", "model.build", None),
    ("fusevit.model", "load_checkpoint", "model.load_checkpoint", None),
    ("fusevit.model", "patchify", "encoder.patchify", None),
    ("fusevit.model", "embed", "encoder.embed", None),
    ("fusevit.model", "forward_collect", "encoder.forward_collect", None),
    ("fusevit.encoder", "_block", "encoder.block", _block_index),
    ("fusevit.encoder", "msa", "encoder.msa", None),
    ("fusevit.encoder", "mlp", "encoder.mlp", None),
    ("fusevit.model", "select_per_layer", "selector.select", None),
    ("fusevit.model", "fuse", "model.fuse", None),
    ("fusevit.model", "encoder_layer", "model.encoder_layer", _layer_and_rows),
    ("fusevit.tensor", "Tape.backward", "tensor.backward", _tape_length),
    ("fusevit.train", "train", "train.train", None),
    ("fusevit.train", "evaluate", "train.evaluate", None),
    ("fusevit.train", "cosine_lr", "train.cosine_lr", None),
    ("fusevit.train", "augment", "data.augment", None),
    ("fusevit.train", "sgd_step", "train.sgd_step", None),
    ("fusevit.data", "generate_synth", "data.generate_synth", None),
    ("fusevit.data", "load_dataset", "data.load_dataset", None),
    ("fusevit.ftz", "read", "ftz.read", None),
    ("fusevit.gradcheck", "op_checks", "gradcheck.op_checks", None),
    ("fusevit.gradcheck", "end_to_end_check", "gradcheck.end_to_end", None),
]

# span record fields
NAME, START, END, PARENT, PHASE, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.absent: dict[str, str] = {}    # span name -> why it is missing
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # ---- hooks ------------------------------------------------------------

    def install(self) -> None:
        for module_name, path, span, note in HOOKS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
            except (AttributeError, KeyError):
                self.absent[span] = f"{module_name}.{path} not found"
                continue
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrap(original.__func__, span, note))
            else:
                wrapped = self._wrap(original, span, note)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            spans.append(rec)
            stack.append(sid)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if note is not None:
                try:
                    rec[NOTE] = note(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    self.absent.setdefault(
                        name + ".note", f"cannot read {name} arguments: {exc!r}")
            return out

        return wrapper

    # ---- output -------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; ``item`` is the enclosing forward's id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        item = [-1] * len(self.spans)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for i, s in enumerate(self.spans):
                if s[NAME] in ("model.forward", "model.plain_forward"):
                    item[i] = i
                elif s[PARENT] >= 0:
                    item[i] = item[s[PARENT]]
                out.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT],
                    "start_us": round((s[START] - t0) * 1e6, 2),
                    "end_us": round((s[END] - t0) * 1e6, 2),
                    "phase": s[PHASE], "item": item[i], "note": s[NOTE],
                }, separators=(",", ":")) + "\n")


def forward_gflop(cfg, final_rows: int) -> float:
    """Matmul GFLOP of one fused forward (2 per multiply-add) from the shapes."""
    d, m, n = cfg.embed_dim, cfg.mlp_dim, cfg.num_patches

    def block(s):
        return 2 * (4 * s * d * d + 2 * s * s * d + 2 * s * d * m)

    head = 2 * (d * d * (cfg.head_layers - 1) + d * cfg.num_classes)
    total = (2 * n * cfg.patch_dim * d + (cfg.layers - 1) * block(n + 1)
             + block(final_rows) + head)
    return total / 1e9


MAX_BLOCKS = 11   # encoder.block1_us .. encoder.block11_us (paper shape: L=12)

# per-layer metric -> (unit, span names it needs)
PER_LAYER = {
    "tensor.tape_ops_per_img": ("count", ["tensor.backward", "tensor.backward.note",
                                          "train.train", "model.forward"]),
    "tensor.backward_us_per_img": ("us", ["tensor.backward", "train.train",
                                          "model.forward"]),
    "encoder.embed_us": ("us", ["encoder.patchify", "encoder.embed", "model.forward"]),
    **{f"encoder.block{i}_us": ("us", ["encoder.block", "encoder.block.note",
                                       "encoder.forward_collect", "model.forward"])
       for i in range(1, MAX_BLOCKS + 1)},
    "encoder.msa_us_per_img": ("us", ["encoder.msa", "model.forward"]),
    "encoder.mlp_us_per_img": ("us", ["encoder.mlp", "model.forward"]),
    "encoder.gflop_per_img": ("GFLOP", ["model.encoder_layer",
                                        "model.encoder_layer.note"]),
    "encoder.gflops": ("GFLOP/s", ["model.forward", "model.encoder_layer",
                                   "model.encoder_layer.note"]),
    "selector.us_per_img": ("us", ["selector.select", "model.forward"]),
    "model.fuse_us": ("us", ["model.fuse", "model.forward"]),
    "model.final_rows": ("count", ["model.encoder_layer", "model.encoder_layer.note"]),
    "model.final_block_us": ("us", ["model.encoder_layer", "model.encoder_layer.note",
                                    "model.forward"]),
    "model.plain_final_block_us": ("us", ["model.encoder_layer",
                                          "model.encoder_layer.note",
                                          "model.plain_forward"]),
    "model.forward_self_us": ("us", ["model.forward"]),
    "model.build_ms": ("ms", ["model.build"]),
    "model.load_checkpoint_ms": ("ms", ["model.load_checkpoint"]),
    "train.forward_us_per_img": ("us", ["train.train", "model.forward"]),
    "train.sgd_us_per_step": ("us", ["train.sgd_step"]),
    "train.step_self_us": ("us", ["train.train", "train.cosine_lr", "train.sgd_step"]),
    "data.augment_us_per_img": ("us", ["data.augment"]),
    "data.load_dataset_ms": ("ms", ["data.load_dataset"]),
    "data.generate_ms": ("ms", ["data.generate_synth"]),
    "ftz.read_calls": ("count", ["ftz.read"]),
    "ftz.read_ms": ("ms", ["ftz.read"]),
    "gradcheck.op_checks_s": ("s", ["gradcheck.op_checks"]),
    "gradcheck.end_to_end_s": ("s", ["gradcheck.end_to_end"]),
    "gradcheck.forward_evals": ("count", ["gradcheck.end_to_end", "model.forward"]),
    "gradcheck.us_per_forward_eval": ("us", ["gradcheck.end_to_end", "model.forward"]),
    "trace.overhead_pct": ("%", []),
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(tracer: Tracer, cfg,
                      applies: set[str]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer figures of the ``loop`` and ``plain`` phases plus set-up.

    Per-image figures divide a layer's total time by the number of fused
    forwards (``model.forward`` calls) in the measured loop. ``applies``
    names the metrics whose layers the workload calls; the others read 0.
    The second dict gives, with the reason, each metric whose hook is
    missing and each metric in ``applies`` that recorded nothing; these
    read 0 too.
    """
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else None

    def ancestor(names):
        """Nearest enclosing span whose name is in ``names``, per span."""
        out = [-1] * len(spans)
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                out[i] = p if spans[p][NAME] in names else out[p]
        return out

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def pick(name, phase="loop", parent=None):
        return [i for i in by_name.get(name, ())
                if spans[i][PHASE] == phase
                and (parent is None or parent_name(i) == parent)]

    def per(total_of, count):
        return sum(dur[i] for i in total_of) / count * 1e6 if count else 0.0

    in_train = ancestor({"train.train"})
    in_e2e = ancestor({"gradcheck.end_to_end"})
    forwards = pick("model.forward")
    nf = len(forwards)
    train_fwd = [i for i in forwards if in_train[i] >= 0]
    e2e_fwd = [i for i in forwards if in_e2e[i] >= 0]
    final = [i for i in pick("model.encoder_layer", parent="model.forward")
             if spans[i][NOTE] is not None and spans[i][NOTE][0] == cfg.layers]
    plain_final = [i for i in pick("model.encoder_layer", "plain", "model.plain_forward")
                   if spans[i][NOTE] is not None and spans[i][NOTE][0] == cfg.layers]
    plain_forwards = pick("model.plain_forward", "plain")
    final_rows = spans[final[0]][NOTE][1] if final else 0
    backward = [i for i in pick("tensor.backward") if in_train[i] >= 0]

    m: dict[str, float] = {}
    m["tensor.tape_ops_per_img"] = (sum(spans[i][NOTE] or 0 for i in backward)
                                    / len(train_fwd) if train_fwd else 0.0)
    m["tensor.backward_us_per_img"] = per(backward, len(train_fwd))
    m["encoder.embed_us"] = per(pick("encoder.patchify", parent="model.forward")
                                + pick("encoder.embed", parent="model.forward"), nf)
    blocks = pick("encoder.block", parent="encoder.forward_collect")
    for b in range(1, MAX_BLOCKS + 1):
        m[f"encoder.block{b}_us"] = per(
            [i for i in blocks if spans[i][NOTE] == b], nf)
    m["encoder.msa_us_per_img"] = per(pick("encoder.msa"), nf)
    m["encoder.mlp_us_per_img"] = per(pick("encoder.mlp"), nf)
    gflop = forward_gflop(cfg, final_rows) if final_rows else 0.0
    m["encoder.gflop_per_img"] = gflop
    fwd_s = _mean(dur[i] for i in forwards)
    m["encoder.gflops"] = gflop / fwd_s if fwd_s else 0.0
    m["selector.us_per_img"] = per(pick("selector.select", parent="model.forward"), nf)
    m["model.fuse_us"] = per(pick("model.fuse", parent="model.forward"), nf)
    m["model.final_rows"] = float(final_rows)
    m["model.final_block_us"] = per(final, nf)
    m["model.plain_final_block_us"] = per(plain_final, len(plain_forwards))
    m["model.forward_self_us"] = _mean(dur[i] - child[i] for i in forwards) * 1e6
    m["model.build_ms"] = _mean(dur[i] for i in by_name.get("model.build", ())) * 1e3
    m["model.load_checkpoint_ms"] = _mean(dur[i] for i in pick("model.load_checkpoint",
                                                                "setup")) * 1e3
    m["train.forward_us_per_img"] = _mean(dur[i] for i in train_fwd) * 1e6
    m["train.sgd_us_per_step"] = _mean(dur[i] for i in pick("train.sgd_step")) * 1e6
    m["train.step_self_us"] = _mean(_step_self_times(spans, dur)) * 1e6
    m["data.augment_us_per_img"] = _mean(dur[i] for i in pick("data.augment")) * 1e6
    m["data.load_dataset_ms"] = _mean(dur[i] for i in pick("data.load_dataset",
                                                            "setup")) * 1e3
    m["data.generate_ms"] = _mean(dur[i] for i in pick("data.generate_synth",
                                                        "setup")) * 1e3
    reads = pick("ftz.read", "setup")
    m["ftz.read_calls"] = float(len(reads))
    m["ftz.read_ms"] = sum(dur[i] for i in reads) * 1e3
    m["gradcheck.op_checks_s"] = _mean(dur[i] for i in pick("gradcheck.op_checks"))
    e2e = pick("gradcheck.end_to_end")
    m["gradcheck.end_to_end_s"] = _mean(dur[i] for i in e2e)
    m["gradcheck.forward_evals"] = len(e2e_fwd) / len(e2e) if e2e else 0.0
    m["gradcheck.us_per_forward_eval"] = _mean(dur[i] for i in e2e_fwd) * 1e6

    seen = {s[NAME] for s in spans if s[PHASE] != "warmup"}
    absent = {}
    for metric, (_unit, needs) in PER_LAYER.items():
        missing = [tracer.absent[n] for n in needs if n in tracer.absent]
        unseen = [n for n in needs if not n.endswith(".note") and n not in seen]
        if missing:
            absent[metric] = "; ".join(missing)
        elif metric in applies and unseen:
            absent[metric] = "hook installed but never called: " + ", ".join(unseen)
        elif metric in applies and m[metric] == 0:
            absent[metric] = "hooks called, but no span of this layer was recorded"
        if metric in absent:
            m[metric] = 0.0
    return m, absent


def _step_self_times(spans, dur) -> list[float]:
    """Self time of each training step in the measured loop.

    A step runs from its ``cosine_lr`` call to the end of its ``sgd_step``;
    its self time is that window minus the spans ``train`` made inside it
    (augment, forward, backward, SGD, the schedule).
    """
    out = []
    start = None
    covered = 0.0
    for i, s in enumerate(spans):
        if s[PHASE] != "loop" or s[PARENT] < 0 or spans[s[PARENT]][NAME] != "train.train":
            continue
        if s[NAME] == "train.cosine_lr":
            start, covered = s[START], 0.0
        if start is None:
            continue
        covered += dur[i]
        if s[NAME] == "train.sgd_step":
            out.append(s[END] - start - covered)
            start = None
    return out
