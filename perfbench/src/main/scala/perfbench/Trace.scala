package perfbench

import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core._
import repro.graph.Dag
import scala.collection.mutable

/** One timed span: a call into a layer's public function, made from the
  * benchmark. Spark work started inside it is charged to it by the listener.
  */
final class Span(val id: Int, val name: String, val parent: Int, val call: Int, val start: Long) {
  var end: Long = -1L
  var jobs = 0L
  var tasks = 0L
  var runMs = 0L
  var shuffleWriteBytes = 0L
  def seconds: Double = (end - start) / 1e9
}

/** In-memory span recorder. The span id travels to Spark as a local property
  * of the calling thread, so each job (and its stages' tasks) is charged to
  * the innermost span open when it was submitted.
  */
final class Tracer(sc: SparkContext) extends SparkListener {
  private val Key = "perfbench.span"
  val spans = mutable.ArrayBuffer.empty[Span]
  private val open = mutable.Stack.empty[Span]
  private val stageSpan = mutable.Map.empty[Int, Span]
  var call = 0

  sc.addSparkListener(this)

  def span[T](name: String)(body: => T): T = {
    val s = new Span(spans.length, name, open.headOption.map(_.id).getOrElse(-1), call, System.nanoTime())
    spans.synchronized(spans += s)
    open.push(s)
    sc.setLocalProperty(Key, s.id.toString)
    try body
    finally {
      s.end = System.nanoTime()
      open.pop()
      sc.setLocalProperty(Key, open.headOption.map(_.id.toString).orNull)
    }
  }

  /** Wait until every listener event posted so far has been delivered. */
  def drain(): Unit = ListenerBusAccess.drain(sc)

  override def onJobStart(e: SparkListenerJobStart): Unit = spans.synchronized {
    for {
      props <- Option(e.properties)
      id <- Option(props.getProperty(Key))
    } {
      val s = spans(id.toInt)
      s.jobs += 1
      e.stageIds.foreach(stageSpan(_) = s)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = spans.synchronized {
    for (s <- stageSpan.get(e.stageId); m <- Option(e.taskMetrics)) {
      s.tasks += 1
      s.runMs += m.executorRunTime
      s.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Self time: the span's duration minus the time its children cover
    * (children of one span run one after another on the calling thread).
    */
  def selfSeconds(s: Span): Double =
    s.seconds - spans.iterator.filter(_.parent == s.id).map(_.seconds).sum

  def callSpans(c: Int): Seq[Span] = spans.synchronized(spans.filter(_.call == c).toSeq)

  /** All spans as JSON, start/end in ms relative to the first span. */
  def json: String = spans.synchronized {
    val t0 = spans.headOption.map(_.start).getOrElse(0L)
    spans.map { s =>
      Json.obj(Seq(
        "id" -> Json.num(s.id), "name" -> Json.str(s.name), "parent" -> Json.num(s.parent),
        "call" -> Json.num(s.call),
        "start_ms" -> Json.num((s.start - t0) / 1e6), "end_ms" -> Json.num((s.end - t0) / 1e6),
        "self_ms" -> Json.num(selfSeconds(s) * 1e3),
        "jobs" -> Json.num(s.jobs), "tasks" -> Json.num(s.tasks),
        "executor_run_ms" -> Json.num(s.runMs), "shuffle_write_bytes" -> Json.num(s.shuffleWriteBytes),
      ))
    }.mkString("[\n", ",\n", "\n]\n")
  }
}

/** `BClean.clean` recomposed from the public calls `BClean.buildModel` makes,
  * in the same order and with the same arguments, each wrapped in a span.
  * The traced run asserts that its output equals `BClean.clean`'s, so this
  * copy cannot drift from the program unnoticed.
  */
object TracedClean {

  final case class Result(cleaned: DataFrame, model: Inference.Model, learned: Dag)

  def apply(
      tr: Tracer,
      dirty: DataFrame,
      attrs: Seq[String],
      ucs: UcSet,
      cfg: BClean.Config,
      presetDag: Option[Dag],
      userEdits: Seq[(Int, Int)],
  ): Result = tr.span("BClean.clean") {
    val effUcs = if (cfg.inference.useUc) ucs else UcSet.empty
    val dag0 = presetDag.getOrElse(
      tr.span("StructureLearner.learn")(StructureLearner.learn(dirty, attrs, cfg.structure)))
    val bn0 = tr.span("BayesNet.learn")(BayesNet.learn(dirty, attrs, dag0, cfg.cptAlpha))
    val bn =
      if (userEdits.isEmpty) bn0
      else tr.span("BayesNet.applyUserEdits")(BayesNet.applyUserEdits(dirty, bn0, userEdits))
    val dag = bn.dag
    // The confidence column is lazy until its first action; the span covers
    // that action (the mean-weight aggregate), so it holds the UDF work and
    // the cache fill, and the corr span reads the cached rows.
    val (withConf, avgW) = tr.span("CompensatoryScore.withConfidence") {
      val wc = CompensatoryScore.withConfidence(dirty, attrs, effUcs, cfg.score.lambda).cache()
      import org.apache.spark.sql.functions.{avg, when}
      val w = wc.agg(avg(when(col("conf") >= cfg.score.tau, 1.0).otherwise(-cfg.score.beta)))
        .collect()(0).getDouble(0)
      (wc, w)
    }
    val corr = tr.span("CompensatoryScore.corr")(CompensatoryScore.collect(
      CompensatoryScore.corrTable(withConf, attrs, cfg.score.tau, cfg.score.beta)))
    val co = tr.span("CoOccurrence.compute")(CoOccurrence.compute(dirty, attrs))
    val domains: Map[Int, IndexedSeq[String]] = tr.span("BClean.domains") {
      attrs.indices.map { i =>
        i -> dirty.select(col(attrs(i))).na.fill("").distinct().collect()
          .map(r => Values.norm(r.getString(0))).toIndexedSeq
      }.toMap
    }
    val pruned =
      if (cfg.inference.domainPruning)
        tr.span("DomainPruning.prune")(DomainPruning.prune(domains, co, dag, cfg.inference.topK))
      else domains
    val model = Inference.Model(attrs, bn, corr, co, domains, pruned, effUcs, cfg.inference, cfg.score, avgW)
    val cleaned = tr.span("Inference.clean") {
      val out = Inference.clean(dirty, model).cache()
      out.count()
      out
    }
    Result(cleaned, model, dag0)
  }

  /** Work counts of the inference pass, recomputed from outside with the
    * model's own rules: cells scored, cells skipped by tuple pruning, and
    * UC-passing candidates scored over all scored cells.
    */
  final case class InferenceWork(cells: Long, skipped: Long, candidates: Long)

  def inferenceWork(model: Inference.Model, rows: Iterable[Array[String]]): InferenceWork = {
    val cfg = model.cfg
    val m = model.attrs.length
    val passing: Array[Set[String]] = Array.tabulate(m) { j =>
      val uc = if (cfg.useUc) model.ucs(model.attrs(j)) else UserConstraint.Unconstrained
      val base = if (cfg.domainPruning) model.prunedDomains(j) else model.domains(j)
      base.iterator.filter(c => !Values.isNull(c) && uc.holds(c)).toSet
    }
    var cells = 0L; var skipped = 0L; var cands = 0L
    for (t <- rows; j <- 0 until m) {
      val skip = cfg.tuplePruning && !Values.isNull(t(j)) && model.co.filterScore(t, j) >= cfg.tauClean
      if (skip) skipped += 1
      else {
        cells += 1
        cands += passing(j).size - (if (passing(j).contains(t(j))) 1 else 0)
      }
    }
    InferenceWork(cells, skipped, cands)
  }

  /** Serialized size of the broadcast model (Java serialization, as Spark's
    * default serializer writes it).
    */
  def modelBytes(model: Inference.Model): Long = {
    val counter = new java.io.OutputStream {
      var n = 0L
      override def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val out = new java.io.ObjectOutputStream(counter)
    out.writeObject(model)
    out.close()
    counter.n
  }
}
