package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.Dag

/** Per-edge conditional probability table (Section 2: "CPTs θ that weight the
  * edges"). One table per BN edge parent → child, estimated from the observed
  * (dirty) relation with Laplace smoothing — errors are modeled as part of
  * the distribution. Pairwise tables stay dense under dirty co-parents,
  * unlike joint multi-parent tables whose combos go unseen the moment any
  * one parent cell is corrupted. Tables derive from the pair and unary
  * counts of one `CoOccurrence` pass (`fromCounts`); the DataFrame entry
  * points count first and delegate.
  *
  * @param parent  attribute index of the edge's source
  * @param child   attribute index of the edge's target
  * @param table   parent value → (child value → count, total)
  * @param domSize |dom(child)| used for smoothing
  * @param alpha   Laplace pseudo-count
  */
final case class Cpt(
    parent: Int,
    child: Int,
    table: Map[String, (Map[String, Long], Long)],
    domSize: Int,
    alpha: Double,
) extends Serializable {

  /** Smoothed Pr[child = v | parent = p]; an unseen parent value (possible
    * only for values absent from the relation) is uniform over the domain.
    */
  def prob(p: String, v: String): Double =
    table.get(p) match {
      case Some((counts, total)) =>
        (counts.getOrElse(v, 0L) + alpha) / (total + alpha * domSize)
      case None => 1.0 / math.max(domSize, 1)
    }

  def logProb(p: String, v: String): Double = math.log(prob(p, v))
}

object Cpt {

  /** The edge CPT parent → child from the pair counts of one counting pass:
    * the (parent, child) counts grouped by parent value, smoothed over the
    * child's observed domain (NULL counts as a value).
    */
  def fromCounts(co: CoOccurrence, parent: Int, child: Int, alpha: Double): Cpt = {
    val table = co.pairs.getOrElse((parent, child), Map.empty)
      .groupBy(_._1._1)
      .map { case (pv, entries) =>
        val counts = entries.map { case ((_, cv), n) => cv -> n }
        pv -> (counts, counts.values.sum)
      }
    Cpt(parent, child, table, co.unary(child).size, alpha)
  }

  /** Learn the per-edge CPT parent → child from a relation. */
  def learn(df: DataFrame, attrs: Seq[String], parent: Int, child: Int, alpha: Double = 0.05): Cpt =
    fromCounts(CoOccurrence.compute(df, Seq(attrs(parent), attrs(child))), 0, 1, alpha)
      .copy(parent = parent, child = child)

  /** All edge CPTs of a DAG, keyed by child. */
  def learnAll(co: CoOccurrence, dag: Dag, alpha: Double): Map[Int, Seq[Cpt]] =
    (0 until dag.n)
      .map(v => v -> dag.parents(v).map(p => fromCounts(co, p, v, alpha)))
      .filter(_._2.nonEmpty)
      .toMap

  def learnAll(df: DataFrame, attrs: Seq[String], dag: Dag, alpha: Double = 0.05): Map[Int, Seq[Cpt]] =
    learnAll(CoOccurrence.compute(df, attrs), dag, alpha)

  /** Prior (marginal) distribution of one attribute from its unary counts,
    * Laplace-smoothed.
    */
  def prior(co: CoOccurrence, attr: Int, alpha: Double): Map[String, Double] = {
    val counts = co.unary(attr)
    val total = counts.values.sum.toDouble
    val dom = counts.size
    counts.map { case (v, c) => v -> (c + alpha) / (total + alpha * dom) }
  }

  def prior(df: DataFrame, attr: String, alpha: Double = 1.0): Map[String, Double] =
    prior(CoOccurrence.compute(df, Seq(attr)), 0, alpha)
}
