"""Per-layer tracing of harity from outside the library.

``Tracer.install`` replaces each traced function or method with a timing
wrapper in every harity module that binds it (``pattern``, for example, is
bound in ``hypotheses``, ``losses`` and ``learners``), and ``uninstall`` puts
every original attribute back.  Spans are aggregated per (name, parent), never
stored per call: a layer's self time is its spans' duration minus the time of
the traced spans they caused.
"""

import contextlib
import functools
import importlib
import time

MODULES = (
    "adversaries",
    "cli",
    "dims",
    "families",
    "fastpath",
    "hypotheses",
    "indexing",
    "learners",
    "losses",
    "reductions",
    "sampler",
    "templates",
)

# module -> traced functions and methods ("Class.method")
TARGETS = {
    "indexing": ("pullback", "pullback_partite", "injections"),
    "hypotheses": ("star", "star_partite", "pattern", "perms", "Hypothesis.__call__"),
    "sampler": ("stream", "labeled_sample", "sample_config", "sample_partite_config"),
    "templates": ("config_law", "partite_config_law", "config_points"),
    "losses": (
        "total_loss",
        "total_loss_partite",
        "total_loss_ag",
        "empirical_loss_nonpartite",
        "empirical_loss_partite",
        "bayes_predictor",
    ),
    "fastpath": (
        "PairContext.__init__",
        "PairContext.draw_unary",
        "PairContext.empirical",
        "PairContext.loss_table",
        "TwoPartiteContext.__init__",
        "TwoPartiteContext.draw",
        "TwoPartiteContext.empirical",
    ),
    "learners": (
        "estimate_pac_success",
        "check_concentration",
        "check_uniform_convergence",
        "Learner.__call__",
    ),
    "dims": ("vcn_k", "natarajan_dim", "growth_function"),
    "reductions": ("departize_construction_law", "departize_discrete_law"),
    "adversaries": ("nfl_worst_F", "find_clean_subset", "ShatteredScenario.hypothesis"),
}

# every family constructor reports under one name; the others delegate to these
FAMILY_BUILDERS = (
    "matching_family",
    "bounded_degree_family",
    "partition_family",
    "highorder_family",
)
FAMILY_BUILD = "families.build"

# the command-line runner is a click group, so the workload records this span
# itself around each in-process invocation (Tracer.call)
CLI_MAIN = "cli.main"

# functions whose result is a list of exact-law atoms
ATOM_COUNTED = ("templates.config_law", "templates.partite_config_law")

CHECKS = ("learners.check_concentration", "learners.check_uniform_convergence")
CONTEXTS = ("fastpath.PairContext.init", "fastpath.TwoPartiteContext.init")


def metric_name(module, attr):
    name = attr.replace("__call__", "call").replace("__init__", "init")
    return f"{module}.{name}"


def layer_names():
    """Every traced name, in reporting order."""
    names = [metric_name(m, a) for m, attrs in TARGETS.items() for a in attrs]
    return names + [FAMILY_BUILD, CLI_MAIN]


class Tracer:
    def __init__(self):
        # (name, parent) -> [calls, total seconds, child seconds, atoms]
        self.stats = {}
        self._stack = []
        self._on = [True]
        self._saved = []

    # -- installation ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"harity.{m}") for m in MODULES}
        try:
            for module, attrs in TARGETS.items():
                for attr in attrs:
                    name = metric_name(module, attr)
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        owner = getattr(modules[module], cls_name)
                        self._patch(owner, meth, self._wrap(name, owner.__dict__[meth]))
                    else:
                        self._patch_bindings(modules, getattr(modules[module], attr), name)
            for attr in FAMILY_BUILDERS:
                self._patch_bindings(
                    modules, getattr(modules["families"], attr), FAMILY_BUILD
                )
        except BaseException:
            self.uninstall()
            raise

    def _patch_bindings(self, modules, original, name):
        wrapper = self._wrap(name, original)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        stats, stack, on, clock = self.stats, self._stack, self._on, time.perf_counter
        count_atoms = name in ATOM_COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[1]
            if count_atoms:
                rec[3] += len(result)
            return result

        return wrapper

    def call(self, name, fn):
        """``fn()``, recorded as a span of ``name`` while the tracer is
        installed: for calls the benchmark makes itself."""
        return self._wrap(name, fn)() if self._saved else fn()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside go unrecorded (the benchmark's own checks)."""
        was, self._on[0] = self._on[0], False
        try:
            yield
        finally:
            self._on[0] = was

    # -- results -----------------------------------------------------------

    def inclusive(self):
        """Seconds inside each traced name, its traced children included
        (a span directly inside one of the same name is not counted twice)."""
        out = dict.fromkeys(layer_names(), 0.0)
        for (name, parent), rec in self.stats.items():
            if name != parent:
                out[name] += rec[1]
        return out

    def metrics(self):
        """``<name>.calls`` and ``<name>.self_s`` for every traced name, the
        law-atom counts, and the share of ``check_*`` calls that built a
        fast-path context."""
        per = {name: [0, 0.0, 0] for name in layer_names()}
        for (name, _), (calls, total, child, atoms) in self.stats.items():
            row = per[name]
            row[0] += calls
            row[1] += total - child
            row[2] += atoms
        out = {}
        for name, (calls, self_s, atoms) in per.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if name in ATOM_COUNTED:
                out[f"{name}.atoms"] = atoms
        checks = sum(per[name][0] for name in CHECKS)
        fast = sum(
            rec[0]
            for (name, parent), rec in self.stats.items()
            if name in CONTEXTS and parent in CHECKS
        )
        out["learners.fast_route_frac"] = fast / checks if checks else 0.0
        return out
