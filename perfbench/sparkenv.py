"""The benchmark's fixed Spark environment: one local session, its
settings, job counting, peak memory and a clean shutdown."""
from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys

#: Driver heap. The JVM's peak RSS follows the heap, so the heap is fixed
#: (initial = maximum) and touched at start: its RSS does not depend on how
#: far the collector happened to grow it in a run. ``-UsePerfData`` keeps
#: the JVMs from writing ``/tmp/hsperfdata_*``, outside the checkout.
DRIVER_HEAP = "1g"
JAVA_OPTIONS = f"-Xms{DRIVER_HEAP} -XX:+AlwaysPreTouch -XX:-UsePerfData"

#: Session settings of the ROADMAP baseline (plus retention, so that no
#: job or stage is evicted from the status tracker before it is counted).
SETTINGS = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.ui.retainedJobs": "1000000",
    "spark.ui.retainedStages": "1000000",
    "spark.driver.host": "127.0.0.1",
    "spark.log.level": "ERROR",
}


def start(work: str):
    """Launch a fresh JVM and session whose scratch files stay in ``work``."""
    tmp = os.path.join(work, "tmp")
    local = os.path.join(work, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    os.environ.pop("PYSPARK_GATEWAY_PORT", None)  # never attach to another JVM
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = local
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # spark-submit's launcher JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[*] --driver-memory {DRIVER_HEAP} pyspark-shell"
    )
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for key, value in {
        **SETTINGS,
        "spark.local.dir": local,
        "spark.sql.warehouse.dir": os.path.join(work, "warehouse"),
        "spark.driver.extraJavaOptions": f"{JAVA_OPTIONS} -Djava.io.tmpdir={tmp}",
    }.items():
        builder = builder.config(key, value)
    return builder.getOrCreate()


def _jvm_proc():
    from pyspark import SparkContext

    return getattr(SparkContext._gateway, "proc", None)


def jvm_pid() -> int:
    """PID of this session's own JVM, from the gateway that launched it."""
    proc = _jvm_proc()
    if proc is None:
        raise RuntimeError("session JVM was not launched by this process")
    exe = os.readlink(f"/proc/{proc.pid}/exe")
    if os.path.basename(exe) != "java":
        raise RuntimeError(f"gateway process {proc.pid} is {exe}, not a JVM")
    return proc.pid


def peak_rss_mb() -> float:
    """Peak RSS of this Python process plus ``VmHWM`` of its JVM, in MB."""
    py_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(f"/proc/{jvm_pid()}/status", encoding="ascii") as fh:
        jvm_kb = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
    return (py_kb + jvm_kb) / 1024.0


def jobs_in_group(sc, group: str | None) -> list[int]:
    """Spark job ids started under a job group (``None``: under no group)."""
    return list(sc.statusTracker().getJobIdsForGroup(group))


def tasks_of_jobs(sc, job_ids: list[int], seen_stages: set[int]) -> int:
    """Completed Spark tasks of the stages these jobs ran; a stage shared
    with an earlier job (and skipped here) is counted once."""
    tracker = sc.statusTracker()
    n = 0
    for jid in sorted(job_ids):
        info = tracker.getJobInfo(jid)
        for sid in info.stageIds if info else ():
            if sid in seen_stages:
                continue
            seen_stages.add(sid)
            stage = tracker.getStageInfo(sid)
            n += stage.numCompletedTasks if stage else 0
    return n


def describe(spark) -> dict:
    """The recorded environment of a run."""
    sc = spark.sparkContext
    conf = dict(sc.getConf().getAll())
    return {
        "spark": spark.version,
        "python": sys.version.split()[0],
        "java": sc._jvm.System.getProperty("java.version"),
        "platform": platform.platform(),
        "cores": os.cpu_count(),
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_heap": DRIVER_HEAP,
        "java_options": JAVA_OPTIONS,
        "settings": {k: conf.get(k) for k in SETTINGS},
    }


def stop(spark) -> None:
    """Stop the session and its JVM, and wait until the JVM has exited."""
    from pyspark import SparkContext

    proc = _jvm_proc()
    try:
        spark.stop()
    finally:
        gateway = SparkContext._gateway
        if gateway is not None:
            gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
        if proc is not None:
            proc.stdin.close()  # the JVM exits on EOF of its stdin
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=60)
