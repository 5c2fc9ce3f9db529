package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{BClean, Metrics, StructureLearner}
import repro.data.CleaningDataset
import repro.graph.Dag
import scala.collection.mutable
import scala.util.control.NonFatal

/** The BClean benchmark: one workload, one seed, one JVM, one caller.
  *
  *   perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *
  * A closed loop makes one `BClean.clean` call at a time, forces it by
  * counting the cached output, checks the output, and starts the next call
  * only when the previous one has finished. With `--trace 0` it prints the
  * end-to-end metrics; with `--trace 1` it runs the traced recomposition of
  * the pipeline and prints per-layer metrics. The last standard-output line
  * is the JSON result.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parse(argv: Array[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      name <- need("workload")
      wl <- Workloads.byName(name).toRight(s"unknown workload $name (${Workloads.all.map(_.name).mkString(", ")})")
      seed <- need("seed").flatMap(s => s.toLongOption.toRight(s"bad --seed $s"))
      secs <- need("seconds").flatMap(s => s.toIntOption.filter(_ > 0).toRight(s"bad --seconds $s"))
      trace <- need("trace").flatMap {
        case "0" => Right(false)
        case "1" => Right(true)
        case t   => Left(s"bad --trace $t")
      }
    } yield Args(wl, seed, secs, trace)
  }

  def main(argv: Array[String]): Unit = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val code = parse(argv) match {
      case Left(msg) =>
        Console.err.println(s"[perfbench] $msg")
        2
      case Right(args) =>
        try { val line = new Bench(args, jvmStartMs).run(); Console.out.println(line); 0 }
        catch { case t: Throwable => t.printStackTrace(); 1 }
    }
    Console.out.flush()
    sys.exit(code)
  }
}

final class Bench(args: Main.Args, jvmStartMs: Long) {
  import Bench._

  private val wl = args.workload
  private def log(s: String): Unit = Console.err.println(s"[perfbench] $s")
  private def since(t0: Long): Double = (System.nanoTime() - t0) / 1e9
  private def sinceJvmStart: Double = (System.currentTimeMillis() - jvmStartMs) / 1e3
  private val threads = math.min(Workloads.Spark.threads, Runtime.getRuntime.availableProcessors())
  private val buildDir = new File(".bench_build").getAbsoluteFile

  /** One call's input. */
  final case class Input(rel: Int, ds: CleaningDataset, presetDag: Option[Dag], edits: Seq[(Int, Int)])

  /** Everything set up before the first timed call. */
  final class State(relations: IndexedSeq[CleaningDataset], learned: Option[Dag]) {
    private val timed = if (wl.interactive) relations else relations.init
    private val refs = mutable.Map.empty[Int, Reference]

    /** Number of user FD edges of the interactive session. */
    def edges: Int = timed.head.fdEdges.length

    def input(call: Int): Input =
      if (wl.interactive) Input(0, timed.head, learned, timed.head.fdEdges.take(call + 1))
      else Input(call, timed(call), None, timed(call).fdEdges)

    /** The untimed warm-up call's input, never equal to a timed call's. */
    def warmUp: Input =
      if (wl.interactive) Input(0, timed.head, learned, Nil)
      else Input(-1, relations.last, None, relations.last.fdEdges)

    def reference(in: Input): Reference =
      refs.getOrElseUpdate(in.rel, new Reference(in.ds.dirty, in.ds.attrs))
  }

  def run(): String = {
    val spark = startSpark()
    try {
      val sessionS = sinceJvmStart
      val (state, prepareS, generateS) = prepare(spark)
      require(wl.qualityCalls <= maxCalls(state), s"${wl.name}: more quality calls than distinct inputs")
      val t0 = System.nanoTime()
      clean(state.warmUp)
      val warmS = since(t0)
      val setupS = sessionS + prepareS + warmS
      log(f"setup: session $sessionS%.3fs + prepare $prepareS%.3fs (generate $generateS%.3fs) + warm-up $warmS%.3fs")
      if (args.trace) traced(spark, state, setupS, generateS) else untraced(spark, state, setupS)
    } finally spark.stop()
  }

  private def startSpark(): SparkSession = {
    val spark = SparkSession.builder
      .master(s"local[$threads]")
      .appName(s"perfbench-${wl.name}")
      .config("spark.sql.shuffle.partitions", Workloads.Spark.shufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", Workloads.Spark.broadcastThreshold)
      .config("spark.sql.codegen.cache.maxEntries", Workloads.Spark.codegenCacheEntries.toLong)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(buildDir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(buildDir, "spark-warehouse").getPath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val effective = Seq(
      s"workload=${wl.name}", s"variant=${wl.variant}", s"rows=${wl.rows}",
      s"relations=${wl.relations}", s"generator_seed=${wl.generatorSeed(args.seed)}",
      s"interactive=${wl.interactive}", s"quality_calls=${wl.qualityCalls}",
      s"master=${spark.sparkContext.master}",
      s"shuffle_partitions=${spark.conf.get("spark.sql.shuffle.partitions")}",
      s"broadcast_threshold=${spark.conf.get("spark.sql.autoBroadcastJoinThreshold")}",
      s"codegen_cache_entries=${spark.conf.get("spark.sql.codegen.cache.maxEntries")}",
      s"seed=${args.seed}", s"seconds=${args.seconds}", s"trace=${if (args.trace) 1 else 0}",
    )
    Console.out.println("# " + effective.mkString(" "))
    spark
  }

  /** Generate and cache every relation (plus the warm-up relation), and for
    * the interactive workload learn the network once.
    * Returns (state, seconds, of which generation seconds).
    */
  private def prepare(spark: SparkSession): (State, Double, Double) = {
    val t0 = System.nanoTime()
    val relations = wl.relations(spark, args.seed, if (wl.interactive) 1 else wl.relations + 1)
    relations.foreach { ds => ds.dirty.cache().count(); ds.clean.cache().count() }
    val generateS = since(t0)
    val learned =
      if (wl.interactive)
        Some(StructureLearner.learn(relations.head.dirty, relations.head.attrs, wl.config.structure))
      else None
    (new State(relations, learned), since(t0), generateS)
  }

  /** One `BClean.clean` call, forced by counting its cached output. */
  private def clean(in: Input): DataFrame = {
    val out = BClean.clean(in.ds.dirty, in.ds.attrs, in.ds.ucs, wl.config, in.presetDag, in.edits).cache()
    out.count()
    out
  }

  /** Calls a run may make without repeating an input. */
  private def maxCalls(state: State): Int = if (wl.interactive) state.edges else wl.relations

  /** Whether to start another call: always until `minCalls` are made, never
    * past the distinct inputs, and otherwise only if it is expected (from the
    * last call's time) to end within `--seconds` of the loop's start.
    */
  private def keepGoing(calls: Int, minCalls: Int, state: State, t0: Long, lastS: Double): Boolean =
    if (calls < minCalls) true
    else if (calls >= maxCalls(state)) false
    else if (sinceJvmStart > HardStopS) { log(s"stopping after $calls calls: ${HardStopS}s since start"); false }
    else since(t0) + lastS <= args.seconds

  private def untraced(spark: SparkSession, state: State, setupS: Double): String = {
    val times = mutable.ArrayBuffer.empty[Double]
    val quality = mutable.ArrayBuffer.empty[Metrics.Prf]
    var calls = 0
    var failed = 0
    var lastS = 0.0
    val t0 = System.nanoTime()
    while (keepGoing(calls, wl.qualityCalls, state, t0, lastS)) {
      val in = state.input(calls)
      val c0 = System.nanoTime()
      val ok = try {
        val busy = new JvmBusy
        val cleaned = clean(in)
        val dt = since(c0)
        times += dt
        var problem = Checks.output(state.reference(in), cleaned)
        val prfText = if (calls < wl.qualityCalls) {
          val prf = Metrics.evaluate(in.ds.dirty, cleaned, in.ds.clean, in.ds.attrs)
          quality += prf
          if (calls == 0) problem = problem.orElse(Checks.oracle(spark, in.ds.dirty, cleaned, in.ds.clean, in.ds.attrs, prf))
          prf.pretty
        } else ""
        log(f"call $calls rel ${in.rel} edits ${in.edits.length}: $dt%.3fs (${busy.since}) $prfText")
        cleaned.unpersist()
        problem.foreach(p => log(s"call $calls failed its check: $p"))
        problem.isEmpty
      } catch { case NonFatal(e) => log(s"call $calls threw: $e"); false }
      if (!ok) failed += 1
      calls += 1
      lastS = since(c0)
    }
    require(times.nonEmpty && quality.nonEmpty, "no call completed")
    val metrics = Seq(
      "clean_s" -> (median(times.toSeq), "s"),
      "f1" -> (median(quality.map(_.f1).toSeq), "ratio"),
      "precision" -> (median(quality.map(_.precision).toSeq), "ratio"),
      "recall" -> (median(quality.map(_.recall).toSeq), "ratio"),
      "pass_share" -> ((calls - failed).toDouble / calls, "ratio"),
      "peak_rss_mb" -> (peakRssMb(), "MB"),
      "setup_s" -> (setupS, "s"),
    )
    val sorted = times.sorted
    Console.out.println(f"# clean_s over ${times.length} calls: median ${median(times.toSeq)}%.3f " +
      f"min ${sorted.head}%.3f max ${sorted.last}%.3f")
    result(calls, failed, metrics)
  }

  private def traced(spark: SparkSession, state: State, setupS: Double, generateS: Double): String = {
    val tracer = new Tracer(spark.sparkContext)
    val perCall = mutable.ArrayBuffer.empty[Map[String, Double]]
    val tracedTotals = mutable.ArrayBuffer.empty[Double]
    val plainTotals = mutable.ArrayBuffer.empty[Double]
    var calls = 0
    var failed = 0
    var lastS = 0.0
    val t0 = System.nanoTime()
    while (keepGoing(calls, 1, state, t0, lastS)) {
      val in = state.input(calls)
      tracer.call = calls
      val c0 = System.nanoTime()
      val ok = try {
        val ref = state.reference(in)
        val res = TracedClean(tracer, in.ds.dirty, in.ds.attrs, in.ds.ucs, wl.config, in.presetDag, in.edits)
        val p0 = System.nanoTime()
        val plain = clean(in)
        plainTotals += since(p0)
        val same = Checks.sameCells(res.cleaned, plain)
        plain.unpersist()
        val prf = tracer.span("Metrics.evaluate")(Metrics.evaluate(in.ds.dirty, res.cleaned, in.ds.clean, in.ds.attrs))
        tracer.drain()
        val problem = Checks.output(ref, res.cleaned)
          .orElse(if (same) None else Some("traced output differs from BClean.clean's"))
          .orElse(if (calls == 0) Checks.oracle(spark, in.ds.dirty, res.cleaned, in.ds.clean, in.ds.attrs, prf) else None)
        val spans = tracer.callSpans(calls)
        val root = spans.find(_.name == "BClean.clean").get
        tracedTotals += root.seconds
        perCall += layerValues(tracer, spans, root, res, ref)
        res.cleaned.unpersist()
        problem.foreach(p => log(s"call $calls failed its check: $p"))
        log(f"traced call $calls rel ${in.rel} edits ${in.edits.length}: traced ${root.seconds}%.3fs plain ${plainTotals.last}%.3fs")
        problem.isEmpty
      } catch { case NonFatal(e) => log(s"call $calls threw: $e"); false }
      if (!ok) failed += 1
      calls += 1
      lastS = since(c0)
    }
    require(perCall.nonEmpty, "no traced call completed")
    val spansFile = new File(buildDir, s"trace-${wl.name}-${args.seed}.json")
    spansFile.getParentFile.mkdirs()
    Files.write(spansFile.toPath, tracer.json.getBytes(StandardCharsets.UTF_8))
    log(s"spans written to $spansFile")
    val selfByLayer = tracer.spans.groupBy(_.name).view.mapValues(_.map(tracer.selfSeconds).sum).toSeq.sortBy(-_._2)
    selfByLayer.foreach { case (n, s) => Console.out.println(f"# self time $n%-34s $s%9.3fs over $calls calls") }
    val extra = Map(
      "data.generate_s" -> generateS,
      "trace.overhead_s" -> (median(tracedTotals.toSeq) - median(plainTotals.toSeq)),
    )
    val metrics = LayerMetrics.map { case (name, unit) =>
      name -> (extra.getOrElse(name, median(perCall.map(_(name)).toSeq)), unit)
    }
    result(calls, failed, metrics)
  }

  /** Per-layer values of one traced call. */
  private def layerValues(tracer: Tracer, spans: Seq[Span], root: Span,
                          res: TracedClean.Result, ref: Reference): Map[String, Double] = {
    def secs(name: String) = spans.filter(_.name == name).map(_.seconds).sum
    def named(names: String*) = spans.filter(s => names.contains(s.name))
    def coreShare(ss: Seq[Span]) = {
      val wallMs = ss.map(_.seconds).sum * 1e3
      if (wallMs <= 0) 0.0 else ss.map(_.runMs).sum / (wallMs * threads)
    }
    val pipeline = spans.filter(_.name != "Metrics.evaluate")
    val model = res.model
    val work = TracedClean.inferenceWork(model, ref.rows.values)
    val cleanedVals = ref.valuesOf(res.cleaned)
    val domainSize = model.domains.valuesIterator.map(_.size).sum.toDouble
    val keptSize = (if (model.cfg.domainPruning) model.prunedDomains else model.domains).valuesIterator.map(_.size).sum
    val cptEntries = model.bn.cpts.valuesIterator.flatten.map(_.table.valuesIterator.map(_._1.size).sum).sum +
      model.bn.priors.valuesIterator.map(_.size).sum
    Map(
      "Inference.clean_s" -> secs("Inference.clean"),
      "Inference.candidates" -> work.candidates.toDouble,
      "Inference.repairs" -> Checks.repairs(ref, cleanedVals).toDouble,
      "Inference.core_share" -> coreShare(named("Inference.clean")),
      "Inference.cells" -> work.cells.toDouble,
      "Inference.cells_skipped" -> work.skipped.toDouble,
      "Inference.model_bytes" -> TracedClean.modelBytes(model).toDouble,
      "DomainPruning.prune_s" -> secs("DomainPruning.prune"),
      "DomainPruning.kept_share" -> keptSize / math.max(domainSize, 1.0),
      "BayesNet.learn_s" -> secs("BayesNet.learn"),
      "BayesNet.applyUserEdits_s" -> secs("BayesNet.applyUserEdits"),
      "BayesNet.cpt_entries" -> cptEntries.toDouble,
      "BayesNet.jobs" -> named("BayesNet.learn", "BayesNet.applyUserEdits").map(_.jobs).sum.toDouble,
      "BayesNet.core_share" -> coreShare(named("BayesNet.learn", "BayesNet.applyUserEdits")),
      "StructureLearner.learn_s" -> secs("StructureLearner.learn"),
      "StructureLearner.edges" -> res.learned.edges.size.toDouble,
      "CompensatoryScore.withConfidence_s" -> secs("CompensatoryScore.withConfidence"),
      "CompensatoryScore.corr_s" -> secs("CompensatoryScore.corr"),
      "CompensatoryScore.corr_entries" -> model.corr.valuesIterator.map(_.size).sum.toDouble,
      "CoOccurrence.compute_s" -> secs("CoOccurrence.compute"),
      "CoOccurrence.pair_entries" -> model.co.pairs.valuesIterator.map(_.size).sum.toDouble,
      "BClean.domains_s" -> secs("BClean.domains"),
      "BClean.self_s" -> tracer.selfSeconds(root),
      "Metrics.evaluate_s" -> secs("Metrics.evaluate"),
      "spark.jobs" -> pipeline.map(_.jobs).sum.toDouble,
      "spark.tasks" -> pipeline.map(_.tasks).sum.toDouble,
      "spark.shuffle_write_bytes" -> pipeline.map(_.shuffleWriteBytes).sum.toDouble,
      "spark.core_share" -> pipeline.map(_.runMs).sum / (root.seconds * 1e3 * threads),
    )
  }

  private def result(attempted: Int, failed: Int, metrics: Seq[(String, (Double, String))]): String = {
    val ms = metrics.map { case (name, (v, unit)) =>
      name -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(unit)))
    }
    Json.obj(Seq(
      "correct" -> Json.bool(failed == 0),
      "attempted" -> Json.num(attempted.toLong),
      "failed" -> Json.num(failed.toLong),
      "metrics" -> Json.obj(ms),
    ))
  }
}

object Bench {
  /** Seconds since JVM start after which no further call starts, so a run
    * ends well inside the 180 s a run may take.
    */
  val HardStopS = 140.0

  /** Per-layer metrics of the traced run, in report order, with units. */
  val LayerMetrics: Seq[(String, String)] = Seq(
    "Inference.clean_s" -> "s", "Inference.candidates" -> "count", "Inference.repairs" -> "count",
    "Inference.core_share" -> "ratio", "Inference.cells" -> "count", "Inference.cells_skipped" -> "count",
    "Inference.model_bytes" -> "B",
    "DomainPruning.prune_s" -> "s", "DomainPruning.kept_share" -> "ratio",
    "BayesNet.learn_s" -> "s", "BayesNet.applyUserEdits_s" -> "s", "BayesNet.cpt_entries" -> "count",
    "BayesNet.jobs" -> "count", "BayesNet.core_share" -> "ratio",
    "StructureLearner.learn_s" -> "s", "StructureLearner.edges" -> "count",
    "CompensatoryScore.withConfidence_s" -> "s", "CompensatoryScore.corr_s" -> "s",
    "CompensatoryScore.corr_entries" -> "count",
    "CoOccurrence.compute_s" -> "s", "CoOccurrence.pair_entries" -> "count",
    "BClean.domains_s" -> "s", "BClean.self_s" -> "s",
    "spark.jobs" -> "count", "spark.tasks" -> "count", "spark.shuffle_write_bytes" -> "B",
    "spark.core_share" -> "ratio",
    "data.generate_s" -> "s", "Metrics.evaluate_s" -> "s", "trace.overhead_s" -> "s",
  )

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** GC time, JIT compile time and process CPU time from creation on:
    * logged per call, so a slow call can be told apart from a collection or
    * compilation burst.
    */
  final class JvmBusy {
    private def now: (Long, Long, Long) = {
      import scala.jdk.CollectionConverters._
      val gcMs = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
      val jitMs = ManagementFactory.getCompilationMXBean.getTotalCompilationTime
      val cpuNs = ManagementFactory.getOperatingSystemMXBean
        .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime
      (gcMs, jitMs, cpuNs)
    }
    private val start = now
    def since: String = {
      val end = now
      f"gc ${end._1 - start._1}ms jit ${end._2 - start._2}ms cpu ${(end._3 - start._3) / 1e9}%.1fs"
    }
  }

  /** Peak resident set size of this process (VmHWM), in MB. */
  def peakRssMb(): Double = {
    val status = new String(Files.readAllBytes(new File("/proc/self/status").toPath), StandardCharsets.UTF_8)
    val line = status.linesIterator.find(_.startsWith("VmHWM:"))
      .getOrElse(sys.error("VmHWM not in /proc/self/status"))
    line.split("\\s+")(1).toDouble / 1024.0
  }
}
