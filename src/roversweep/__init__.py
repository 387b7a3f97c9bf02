"""Exact solvers for deadline-constrained exploration of lines, rings and
stars by collections of mobile robots, some of which may crash."""

from .exact import ExactNumber, INFINITY, format_number
from .instance import (
    InstanceError,
    LineInstance,
    ProblemSpec,
    RingInstance,
    RobotPlacement,
    StarInstance,
    parse_instance,
    prune_dominated,
    serialize_instance,
)
from .schedule import (
    RobotTrack,
    Schedule,
    ScheduleError,
    Verdict,
    VerificationReport,
    schedule_from_json,
)
from .state_graph import StateGraph
from .single_robot import (
    init_start,
    interval_table,
    extract_trajectory,
    propagate,
    solve_fixed_start,
    solve_free_start,
)
from .multi_line import solve_fixed, solve_free
from .fault_line import (
    decide,
    decide_fixed_faulty,
    resilience,
    solve,
    solve_fixed_faulty,
    solve_free_faulty,
)
from .ring import (
    decide_ring_fixed_faulty,
    optimize_ring_fixed_faulty,
    replicate_ring,
    solve_ring_fixed,
    solve_ring_free,
    solve_ring_free_faulty,
)
from .reductions import (
    line_from_n3dm,
    star_exact,
    star_from_partition,
)
from .oracle import Caps, CapExceeded, brute_solve, enumerate_walks, verify_schedule

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
