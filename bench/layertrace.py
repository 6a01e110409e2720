"""Layer spans recorded from outside the program by a profile hook.

A span opens whenever a call enters a function defined in
`dinicert/<layer>.py` from another module (or from the benchmark) and
closes when that call returns.  Spans are keyed by module, never by
function name, so they survive refactors that rename or delete private
helpers.  Time spent in mpmath, numpy or dinicert modules that are not
layers (`families`, `errors`) stays inside the span of the layer that
called it.  Spans are kept in memory and summarised after the run.
"""

from __future__ import annotations

import dis
import gzip
import json
import os
import sys
import time

LAYERS = ("bessel", "zeros", "criterion", "certify", "cli")
VERDICTS = ("certified", "refuted", "inapplicable", "boundary")

_BESSEL, _ZEROS, _CRITERION, _CERTIFY, _ = range(len(LAYERS))
_RETURN = dis.opmap["RETURN_VALUE"]
_MPMATH = -1
_OTHER = -2


class LayerTrace:
    """Collects spans while installed with `sys.setprofile`.

    Each span is a list [layer, parent, start_ns, end_ns, child_ns,
    failed, zeros, verdict, under_certify]; `parent` is the index of the
    enclosing span or -1 when the benchmark itself made the call.
    """

    def __init__(self, package_dir: str):
        self._package = os.path.realpath(package_dir) + os.sep
        self._kinds: dict[str, int] = {}
        self._bessel_file = None
        self.spans: list[list] = []
        self._open: list[tuple] = []  # (frame, span index)
        self.mpmath_calls = 0

    def _kind(self, filename: str) -> int:
        kind = self._kinds.get(filename)
        if kind is None:
            path = os.path.realpath(filename)
            kind = _OTHER
            if path.startswith(self._package):
                name = os.path.splitext(path[len(self._package):])[0]
                if name in LAYERS:
                    kind = LAYERS.index(name)
                    if kind == _BESSEL:
                        self._bessel_file = filename
            elif f"{os.sep}mpmath{os.sep}" in path:
                kind = _MPMATH
            self._kinds[filename] = kind
        return kind

    def hook(self, frame, event, arg):
        if event == "call":
            code_file = frame.f_code.co_filename
            kind = self._kind(code_file)
            if kind == _OTHER:
                return
            caller = frame.f_back
            caller_file = caller.f_code.co_filename if caller is not None else ""
            if kind == _MPMATH:
                if caller_file == self._bessel_file:
                    self.mpmath_calls += 1
                return
            if caller_file == code_file:
                return
            parent = self._open[-1][1] if self._open else -1
            under = parent >= 0 and (self.spans[parent][0] == _CERTIFY or self.spans[parent][8])
            self.spans.append([kind, parent, time.perf_counter_ns(), 0, 0,
                               False, 0, None, under])
            self._open.append((frame, len(self.spans) - 1))
        elif event == "return" and self._open and self._open[-1][0] is frame:
            end = time.perf_counter_ns()
            _, index = self._open.pop()
            span = self.spans[index]
            span[3] = end
            if arg is None:
                # A frame left by an exception stops short of RETURN_VALUE.
                span[5] = frame.f_code.co_code[frame.f_lasti] != _RETURN
            else:
                entries = getattr(arg, "entries", None)
                if isinstance(entries, tuple):
                    span[6] = len(entries)
                verdict = getattr(arg, "verdict", None)
                if verdict in VERDICTS:
                    span[7] = verdict
            if span[1] >= 0:
                self.spans[span[1]][4] += end - span[2]

    def __enter__(self):
        sys.setprofile(self.hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON, times in ns from the first start."""
        t0 = self.spans[0][2] if self.spans else 0
        rows = [[LAYERS[s[0]], s[1], s[2] - t0, s[3] - s[2], int(s[5])] for s in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"columns": ["layer", "parent", "start_ns", "duration_ns", "failed"],
                       "spans": rows}, fh, separators=(",", ":"))

    def summary(self, passes: int, wall_s: float) -> dict:
        """name -> (value, unit): per-pass counts, and self time over all passes."""
        calls = [0] * len(LAYERS)
        failures = [0] * len(LAYERS)
        self_ns = [0] * len(LAYERS)
        top_ns = 0
        zeros = zeros_under_certify = 0
        bessel_from = [0] * len(LAYERS)
        verdicts = dict.fromkeys(VERDICTS, 0)
        for layer, parent, start, end, child, failed, nz, verdict, under in self.spans:
            calls[layer] += 1
            failures[layer] += failed
            self_ns[layer] += end - start - child
            if parent < 0:
                top_ns += end - start
            elif layer == _BESSEL:
                bessel_from[self.spans[parent][0]] += 1
            if layer == _ZEROS:
                zeros += nz
                zeros_under_certify += nz if under else 0
            if verdict is not None:
                verdicts[verdict] += 1

        out = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = (calls[i] / passes, "count")
            out[f"{name}.failures"] = (failures[i] / passes, "count")
            out[f"{name}.self_s"] = (self_ns[i] * 1e-9, "s")
            out[f"{name}.self_share"] = (self_ns[i] * 1e-9 / wall_s, "ratio")
        out["bessel.mpmath_calls"] = (self.mpmath_calls / passes, "count")
        out["zeros.zeros_localized"] = (zeros / passes, "count")
        out["zeros.bessel_calls_per_zero"] = (bessel_from[_ZEROS] / zeros if zeros else 0.0,
                                              "ratio")
        # Certify calls that ended in a verdict or an exception; calls such
        # as CertReport.to_dict from the CLI also cross into the layer.
        decided = sum(verdicts.values()) + failures[_CERTIFY]
        out["certify.zeros_per_verdict"] = (zeros_under_certify / decided if decided
                                            else 0.0, "ratio")
        out["criterion.bessel_calls_per_op"] = (bessel_from[_CRITERION] / calls[_CRITERION]
                                                if calls[_CRITERION] else 0.0, "ratio")
        for v, n in verdicts.items():
            out[f"certify.verdicts.{v}"] = (n / passes, "count")
        out["trace.layers_s"] = (top_ns * 1e-9, "s")
        return out
