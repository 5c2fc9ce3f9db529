package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.graph.Dag

/** Regression guard on the number of Spark jobs a model build launches: the
  * network, its user edits and the domains all derive from one counting
  * pass, so they must not fall back to a job per edge or per attribute.
  */
class JobCountSpec extends SparkSpec {

  private val attrs = Fixtures.fdAttrs
  private lazy val dirty = Fixtures.fdTableDirty(spark, 120)
  private val preset = Dag(3, Map((0, 1) -> 1.0))
  // Add 1 → 2, add 0 → 2, then 2 → 0: drops 0 → 2, and adding 2 → 0 would
  // close 0 → 1 → 2 → 0, so it is skipped.
  private val edits = Seq((1, 2), (0, 2), (2, 0))

  /** Runs `body` and counts the Spark jobs submitted from this thread while
    * it ran (tagged through a thread-local property).
    */
  private def jobsOf[T](body: => T): (T, Int) = {
    val sc = spark.sparkContext
    val key = "repro.test.jobScope"
    val scope = java.util.UUID.randomUUID().toString
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty(key) == scope)) jobs.incrementAndGet()
    }
    sc.addSparkListener(listener)
    sc.setLocalProperty(key, scope)
    try {
      val out = body
      ListenerBusDrain(sc)
      (out, jobs.get)
    } finally {
      sc.setLocalProperty(key, null)
      sc.removeSparkListener(listener)
    }
  }

  test("buildModel with a preset DAG and 3 user edits launches at most 4 jobs") {
    dirty.count()
    val (model, jobs) = jobsOf(BClean.buildModel(dirty, attrs, UcSet.empty, BClean.Config.pi,
      presetDag = Some(preset), userEdits = edits))
    assert(model.bn.dag.parents(2) == Seq(1))
    assert(jobs <= 4, s"$jobs jobs")
  }

  test("BayesNet.learn and applyUserEdits on counts launch no job") {
    val co = CoOccurrence.compute(dirty, attrs)
    val (bn, jobs) = jobsOf(BayesNet.applyUserEdits(co, BayesNet.learn(co, attrs, preset, 0.05), edits))
    assert(bn.dag.parents(2) == Seq(1))
    assert(jobs == 0, s"$jobs jobs")
  }

  test("the job counter sees jobs") {
    val (_, jobs) = jobsOf(dirty.groupBy("city").count().collect())
    assert(jobs >= 1)
  }
}
