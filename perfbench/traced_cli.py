"""Run one flattori command with spans around the public functions of each layer.

Usage: python perfbench/traced_cli.py SPAN_FILE -- <flattori arguments>

Every function in PLAN is replaced, in every ``flattori.*`` module that
holds it (names such as ``validate`` or ``verify_map`` are imported by name
into other modules), by a wrapper that records a span: name, start, end,
parent span, and whether it is the outermost open span of that name.  The
spans stay in memory and are written to SPAN_FILE at exit, together with
the work counters some wrappers add (candidates, basis sizes, ...).  The
command's stdout and exit code are those of ``flattori.cli.main``.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter_ns

# (span name, module, attribute); a dotted attribute names a method.
PLAN = [
    ("torus.validate", "flattori.torus", "validate"),
    ("torus.zero_mode_momenta", "flattori.torus", "zero_mode_momenta"),
    ("torus.doubled", "flattori.torus", "doubled"),
    ("torus.narain_form", "flattori.torus", "narain_form"),
    ("equivalence.spectrum_fingerprint", "flattori.equivalence", "spectrum_fingerprint"),
    ("equivalence.intertwiner_space", "flattori.equivalence", "intertwiner_space"),
    ("equivalence.search_relation", "flattori.equivalence", "search_relation"),
    ("equivalence.verify_map", "flattori.equivalence", "verify_map"),
    ("kernels.run_filter", "flattori.kernels", "run_filter"),
    ("exactlinear.rref", "flattori.exactlinear", "RatMatrix.rref"),
    ("exactlinear.inverse", "flattori.exactlinear", "RatMatrix.inverse"),
    ("exactlinear.det", "flattori.exactlinear", "RatMatrix.det"),
    ("exactlinear.matmul", "flattori.exactlinear", "RatMatrix.__mul__"),
    ("exactlinear.wedge", "flattori.exactlinear", "wedge"),
    ("exactlinear.induced_map", "flattori.exactlinear", "induced_map"),
    ("intlat.integral_coordinate_lattice", "flattori._intlat", "integral_coordinate_lattice"),
    ("intlat.pair_reduce", "flattori._intlat", "pair_reduce"),
    ("tduality.find_lagrangian_splitting", "flattori.tduality", "find_lagrangian_splitting"),
    ("tduality.mirror_via_tduality", "flattori.tduality", "mirror_via_tduality"),
    ("cohomology.hodge_diamond", "flattori.cohomology", "hodge_diamond"),
    ("cohomology.rational_pp_classes", "flattori.cohomology", "rational_pp_classes"),
    ("cohomology.lefschetz_kernel_dim", "flattori.cohomology", "lefschetz_kernel_dim"),
    ("cohomology.fm_transform", "flattori.cohomology", "fm_transform"),
    ("cohomology.mirror_class_condition", "flattori.cohomology", "mirror_class_condition"),
    ("cohomology.beta_torsion", "flattori.cohomology", "beta_torsion"),
    ("abranes.check_abrane", "flattori.abranes", "check_abrane"),
    ("abranes.wedge_characterization", "flattori.abranes", "wedge_characterization"),
    ("abranes.anomaly_check_affine", "flattori.abranes", "anomaly_check_affine"),
    ("fock.TruncatedFock", "flattori.fock", "TruncatedFock"),
    ("fock.ccr_car_sweep", "flattori.fock", "ccr_car_sweep"),
    ("jsonio.load", "flattori.jsonio", "load_json"),
    ("jsonio.load", "flattori.jsonio", "load_torus"),
    ("jsonio.load", "flattori.jsonio", "load_brane"),
    ("jsonio.load", "flattori.jsonio", "load_map"),
    ("jsonio.dump", "flattori.jsonio", "torus_to_json"),
    ("jsonio.dump", "flattori.jsonio", "matrix_to_json"),
    ("jsonio.dump", "flattori.jsonio", "certificate_to_json"),
    ("jsonio.dump", "flattori.jsonio", "class_to_json"),
    ("jsonio.dump", "flattori.jsonio", "gauss_to_json"),
    ("cli.main", "flattori.cli", "main"),
    ("kernels.lane.python", "flattori.kernels_py", "run_filter"),
]


def _max_bits(basis):
    return max((abs(x).bit_length() for v in basis for x in v), default=0)


# Work counters taken from a layer's return value: name -> (counter, fn(result)).
COUNTERS = {
    "kernels.run_filter": [("kernels.run_filter.candidates", lambda r: r[1]),
                           ("kernels.run_filter.hits", lambda r: len(r[0]))],
    "equivalence.intertwiner_space": [("equivalence.intertwiner_space.k", len)],
    "fock.TruncatedFock": [("fock.basis_dim", lambda r: len(r.basis))],
    "fock.ccr_car_sweep": [("fock.ccr_car_sweep.checks", len)],
    "kernels.lane.python": [("kernels.lane.python.candidates", lambda r: r[1])],
    "kernels.lane.compiled": [("kernels.lane.compiled.candidates", lambda r: r[1])],
}
MAX_COUNTERS = {"intlat.pair_reduce": ("intlat.max_coeff_bits", _max_bits)}


class Recorder:
    def __init__(self):
        self.names = []
        self.index = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.outer = array("b")
        self.active = []
        self.stack = [-1]
        self.counters = {}

    def wrap(self, span, fn):
        if span not in self.index:
            self.index[span] = len(self.names)
            self.names.append(span)
            self.active.append(0)
        idx = self.index[span]
        adders = COUNTERS.get(span, ())
        maxer = MAX_COUNTERS.get(span)
        rec = self

        def traced(*args, **kwargs):
            i = len(rec.name)
            rec.name.append(idx)
            rec.parent.append(rec.stack[-1])
            rec.outer.append(rec.active[idx] == 0)
            rec.end.append(0)
            rec.active[idx] += 1
            rec.stack.append(i)
            rec.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[i] = perf_counter_ns()
                rec.stack.pop()
                rec.active[idx] -= 1
            for key, count in adders:
                rec.counters[key] = rec.counters.get(key, 0) + count(result)
            if maxer:
                key, value = maxer
                rec.counters[key] = max(rec.counters.get(key, 0), value(result))
            return result

        return traced

    def install(self):
        for modname in sorted({m for _, m, _ in PLAN}):
            importlib.import_module(modname)
        for span, modname, attr in PLAN:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(span, cls.__dict__[meth]))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(span, original)
            for name, other in list(sys.modules.items()):
                if name.split(".")[0] != "flattori" or other is None:
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
        compiled = getattr(sys.modules["flattori.kernels"], "_compiled", None)
        if compiled is not None:
            compiled.run_filter = self.wrap("kernels.lane.compiled", compiled.run_filter)

    def write(self, path):
        header = {"names": self.names, "n": len(self.name), "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.outer):
                arr.tofile(fh)


def read_spans(path):
    """Load a SPAN_FILE; returns (header, name, start, end, parent, outer)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in "iqqib":
            arr = array(code)
            arr.fromfile(fh, header["n"])
            arrays.append(arr)
    return (header, *arrays)


def main():
    span_file = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: traced_cli.py SPAN_FILE -- <flattori arguments>")
    rec = Recorder()
    rec.install()
    cli = sys.modules["flattori.cli"]
    try:
        code = cli.main(sys.argv[3:])
    finally:
        rec.write(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
