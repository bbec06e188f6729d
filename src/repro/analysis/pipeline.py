"""Memoized per-program analysis pipeline.

Every timing simulation of a workload needs the same expensive static
and dynamic analyses first: assemble the source, execute it
architecturally, profile indirect jumps, build the CFGs, compute
dominance/postdominance and loops, and classify spawn points.  The
experiment grid runs each workload under ~15 policy specs and several
machine configurations, so recomputing that pipeline per job dominated
setup time.

:class:`AnalysisCache` computes the pipeline exactly once per *program
text*: entries are keyed by the SHA-256 of the assembly source, so two
call sites that build the same program (e.g. the same workload at the
same scale, or two scales that happen to emit identical source) share
one :class:`ProgramAnalyses`.  The cache is process-local; an optional
on-disk layer (enabled by the parallel runner under its existing cache
directory) lets freshly started worker processes skip the pipeline for
programs any earlier run already analysed.

The pipeline's repro-internal imports are deferred into the compute
path: :mod:`repro.spawn` and :mod:`repro.cfg` themselves import
:mod:`repro.analysis`, and this module is re-exported from the package
``__init__``.
"""

import functools
import hashlib
import os
import pickle
import tempfile

#: Bump to invalidate persisted analysis entries (e.g. when an analysis
#: gains fields or changes meaning in ways the digest cannot see).
#: v2: analyses carried the trace's compiled block table.
#: v3: the block engine was removed; pickles no longer carry one.
ANALYSIS_FORMAT_VERSION = 3


@functools.lru_cache(maxsize=512)
def source_digest(source):
    """Content key of one program: SHA-256 of its assembly source.

    Memoized: the workload suite and the grid scheduler look the same
    handful of sources up thousands of times per run, and the assembled
    :class:`~repro.isa.program.Program` carries the same digest (see
    :meth:`~repro.isa.program.Program.content_digest`), so each source
    is hashed once per process.
    """
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class ProgramAnalyses:
    """Everything derived from one program's source, computed once.

    Carries the assembled program, its committed-path trace, the
    trace-derived jump profile, the profile-driven CFGs (with dominator
    and postdominator trees and loop forests computed inside), and the
    :class:`~repro.spawn.policies.SpawnAnalysis` holding the classified
    spawn points.  Spawn profiles are memoized per profiling distance.

    The large members (``program``, ``trace``, ``cfgs``,
    ``spawn_analysis``) are shared, not copied — callers must treat
    them as immutable.  The point accessors return fresh lists, so
    mutating *those* cannot poison the cache.
    """

    __slots__ = (
        "digest",
        "program",
        "trace",
        "jump_profile",
        "cfgs",
        "spawn_analysis",
        "_profiles",
    )

    def __init__(self, digest, program, trace, jump_profile, cfgs, spawn_analysis):
        self.digest = digest
        self.program = program
        self.trace = trace
        self.jump_profile = jump_profile
        self.cfgs = cfgs
        self.spawn_analysis = spawn_analysis
        self._profiles = {}

    def postdominator_points(self):
        """Fresh list of the control-equivalent (ipdom) spawn points."""
        return list(self.spawn_analysis.postdominator_points)

    def loop_points(self):
        """Fresh list of the heuristic loop-iteration spawn points."""
        return list(self.spawn_analysis.loop_points)

    def spawn_profile(self, max_spawn_distance):
        """The spawn profile at one profiling distance (memoized).

        Profiles the union of postdominator and loop spawn points, so
        every policy's hint table can be derived from the result.
        """
        profile = self._profiles.get(max_spawn_distance)
        if profile is None:
            from repro.spawn import profile_spawn_points

            points = self.postdominator_points() + self.loop_points()
            profile = profile_spawn_points(self.trace, points, max_spawn_distance)
            self._profiles[max_spawn_distance] = profile
        return profile

    def __repr__(self):
        return "ProgramAnalyses(digest={}, dynamic={}, procedures={})".format(
            self.digest[:12], len(self.trace), len(self.cfgs)
        )


def compute_analyses(source, digest=None):
    """Run the full analysis pipeline on ``source``, bypassing caches.

    The imports live here (not at module scope) because the pipeline's
    inputs — :mod:`repro.cfg`, :mod:`repro.spawn` — themselves import
    :mod:`repro.analysis`.
    """
    from repro.cfg import JumpProfile, build_program_cfgs
    from repro.isa import assemble
    from repro.sim import run_program
    from repro.spawn import SpawnAnalysis

    if digest is None:
        digest = source_digest(source)
    program = assemble(source)
    trace = run_program(program)
    jump_profile = JumpProfile.from_trace(trace)
    cfgs = build_program_cfgs(program, jump_profile=jump_profile)
    spawn_analysis = SpawnAnalysis(cfgs)
    return ProgramAnalyses(digest, program, trace, jump_profile, cfgs, spawn_analysis)


class AnalysisCache:
    """Content-keyed store of :class:`ProgramAnalyses`.

    Two layers: a process-local dict (hit returns the *same* object, so
    trace predecode and spawn-profile memos are shared by every
    simulation of the program), and an optional pickle directory
    shared between processes.  Disk entries are written atomically
    (temp file + :func:`os.replace`) and any unreadable or
    version-mismatched entry is treated as a miss and overwritten.
    """

    def __init__(self, disk_root=None):
        self.disk_root = disk_root
        self._memory = {}
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0

    def analyses_for(self, source):
        """The :class:`ProgramAnalyses` of ``source`` (computing at most
        once per process, and at most once per disk root)."""
        digest = source_digest(source)
        analyses = self._memory.get(digest)
        if analyses is not None:
            self.hits += 1
            return analyses
        analyses = self._disk_load(digest)
        if analyses is None:
            self.misses += 1
            analyses = compute_analyses(source, digest)
            self._disk_store(digest, analyses)
        else:
            self.disk_hits += 1
        self._memory[digest] = analyses
        return analyses

    def trace_length_for(self, source):
        """Committed-trace length of ``source``.

        The grid scheduler's cost unit: simulation time is linear in
        committed instructions, and the trace is already materialized
        by the pipeline, so the estimate is exact and free for any
        program this cache (memory or disk layer) has seen.
        """
        return len(self.analyses_for(source).trace)

    def peek_trace_length(self, source):
        """Committed-trace length if already cached, else None.

        Consults the memory and disk layers only — a miss returns None
        instead of running the pipeline.  The grid scheduler's cost
        model peeks first and falls back to the closed-form estimator
        (:func:`repro.analysis.estimate.estimated_trace_length`) on a
        miss, so costing a cold synthesized grid no longer prepares
        every cell in the parent.
        """
        digest = source_digest(source)
        analyses = self._memory.get(digest)
        if analyses is not None:
            self.hits += 1
            return len(analyses.trace)
        analyses = self._disk_load(digest)
        if analyses is None:
            return None
        self.disk_hits += 1
        self._memory[digest] = analyses
        return len(analyses.trace)

    def clear(self):
        """Drop the in-memory layer (disk entries are left in place)."""
        self._memory.clear()

    def __len__(self):
        return len(self._memory)

    # -- disk layer ---------------------------------------------------------------

    def _path(self, digest):
        return os.path.join(self.disk_root, digest[:2], digest + ".pkl")

    def _disk_load(self, digest):
        if self.disk_root is None:
            return None
        try:
            with open(self._path(digest), "rb") as handle:
                entry = pickle.load(handle)
            if entry["version"] != ANALYSIS_FORMAT_VERSION:
                return None
            return entry["analyses"]
        except Exception:
            return None

    def _disk_store(self, digest, analyses):
        if self.disk_root is None:
            return
        path = self._path(digest)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            handle, temp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
        except OSError:
            return
        try:
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(
                    {"version": ANALYSIS_FORMAT_VERSION, "analyses": analyses},
                    stream,
                )
            os.replace(temp_path, path)
        except Exception:
            try:
                os.unlink(temp_path)
            except OSError:
                pass


#: The process-wide shared cache every workload preparation goes through.
_SHARED_CACHE = AnalysisCache()


def shared_cache():
    """The process-wide :class:`AnalysisCache`."""
    return _SHARED_CACHE


def peek_trace_length_for_source(source):
    """Shared-cache :meth:`AnalysisCache.peek_trace_length` shorthand."""
    return _SHARED_CACHE.peek_trace_length(source)


def analyses_for_source(source):
    """Analyses of ``source`` via the shared cache."""
    return _SHARED_CACHE.analyses_for(source)


def trace_length_for_source(source):
    """Committed-trace length of ``source`` via the shared cache (the
    grid scheduler's per-program cost estimate)."""
    return _SHARED_CACHE.trace_length_for(source)


def configure_disk_cache(disk_root):
    """Point the shared cache's disk layer at ``disk_root`` (or disable
    it with ``None``).  Used by the parallel runner's worker
    initializer so fresh processes reuse earlier runs' analyses."""
    _SHARED_CACHE.disk_root = disk_root


def clear_shared_cache():
    """Drop the shared cache's in-memory entries (mainly for tests)."""
    _SHARED_CACHE.clear()
