"""The benchmark's workloads: fixed lists of eqdeform CLI operations.

Each operation is one ``eqdeform.cli.main(argv)`` call.  Its stdout must
match an expected file byte for byte and its exit code the expected code.
Golden operations read ``tests/golden/*`` in place; the others read
``bench/expected/*``, whose key integers ``bench/test_bench.py`` checks
against sources independent of the program.

Truncations and lift orders are chosen so that one pass of each workload
takes a few seconds while the layer that the workload was chosen for
still dominates its traced run.  Operations that are there for coverage
rather than for the workload's main layer are marked with the reason.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    argv: tuple
    expected: str  # file holding the expected stdout, relative to the root
    code: int

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def name(self) -> str:
        return " ".join(self.argv)

    @property
    def problem_files(self) -> tuple:
        return tuple(a for a in self.argv if a.endswith(".prob"))


def _golden(argv: str, golden: str, code: int = 0) -> Op:
    return Op(tuple(argv.split()), "tests/golden/" + golden, code)


def _own(argv: str, expected: str, code: int = 0) -> Op:
    return Op(tuple(argv.split()), "bench/expected/" + expected, code)


WORKLOADS = {
    # Wild slices over F2 and F3: time goes to cohomology and to linalg
    # over prime fields; group orders 2, 3, 4 and 8 show the |G| scaling.
    "wild_fp": (
        _own("obstruction bench/problems/klein_f2.prob --truncate 2",
             "obstruction_klein_f2_t2.txt", 2),
        _own("tangent bench/problems/klein_f2.prob --truncate 2",
             "tangent_klein_f2_t2.txt"),
        _own("obstruction bench/problems/cyc3_f3.prob --truncate 3",
             "obstruction_cyc3_f3_t3.txt", 2),
        _own("tangent bench/problems/trans_f3.prob --truncate 3",
             "tangent_trans_f3_t3.txt"),
        _own("obstruction bench/problems/d4_f2.prob --truncate 8",
             "obstruction_d4_f2_t8.txt", 2),
        _golden("obstruction problems/node_f2.prob --truncate 4",
                "obstruction_node_f2.txt", 2),
        # the one lift here whose defect cocycle is nonzero, so it runs the
        # coboundary solve on a wild slice
        _own("lift bench/problems/klein_twist_f2.prob --order 2 --truncate 2",
             "lift_klein_twist_f2_o2_t2.txt"),
    ),
    # Tame over Q: elimination over Fraction matrices under the ambient
    # vector slice; the tame obstruction bypasses cohomology.
    "tame_q": (
        _own("tangent bench/problems/cubic_q.prob --truncate 4",
             "tangent_cubic_q_t4.txt"),
        _own("tangent bench/problems/curve_q.prob", "tangent_curve_q.txt"),
        _own("obstruction bench/problems/cubic_q.prob",
             "obstruction_cubic_q.txt"),
        _golden("check problems/cusp_q.prob", "check_cusp.txt"),
        _golden("tangent problems/cusp_q.prob", "tangent_cusp.txt"),
        _golden("tangent problems/node_q.prob", "tangent_node.txt"),
        _own("ramify --d 300 --m 6 --p 7", "ramify_300_6_7.txt"),
        _golden("ramify --d 1 --m 2 --p 5", "ramify_1_2_5.txt"),
    ),
    # Stepwise lifting: many small calls into deform, poly, gaction and
    # groebner; linalg and cohomology stay near idle.
    "lift_deep": (
        _own("lift bench/problems/trans_f3.prob --order 50",
             "lift_trans_f3_o50.txt"),
        _own("lift bench/problems/klein_f2.prob --order 40",
             "lift_klein_f2_o40.txt"),
        _own("lift problems/cusp_q.prob --order 30 --enumerate",
             "lift_cusp_q_o30_enum.txt"),
        _golden("lift problems/node_q.prob --order 2", "lift_node.txt"),
        _golden("lift problems/line_f2.prob --order 3", "lift_line_f2.txt"),
        _golden("lift problems/cusp_q.prob --order 1 --enumerate",
                "lift_cusp_enum.txt"),
        _golden("iso problems/cusp_lift_zero.prob problems/cusp_lift_x.prob",
                "iso_cusp_none.txt"),
        # lifts a given first-order deformation rather than the trivial one
        _own("lift problems/cusp_lift_x.prob --order 10",
             "lift_cusp_lift_x_o10.txt"),
        _own("iso problems/cusp_lift_zero.prob "
             "bench/problems/cusp_lift_shift.prob", "iso_cusp_shift.txt"),
        # the tangent and obstruction reports over a free action; the
        # obstruction is the only obstruction_space call on this workload
        _own("tangent problems/line_f2.prob", "tangent_line_f2.txt"),
        _own("obstruction problems/line_f2.prob", "obstruction_line_f2.txt"),
    ),
}

def problem_files(workload: str) -> tuple:
    """Distinct problem files a workload reads, in first-use order."""
    seen = {}
    for op in WORKLOADS[workload]:
        for path in op.problem_files:
            seen.setdefault(path, None)
    return tuple(seen)
