#include "ceaff/baselines/baselines.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ceaff/core/pipeline.h"
#include "ceaff/embed/bootstrap.h"
#include "ceaff/kg/adjacency.h"
#include "ceaff/kg/attribute_similarity.h"
#include "ceaff/la/kernels.h"
#include "ceaff/la/ops.h"
#include "ceaff/matching/matching.h"
#include "ceaff/text/name_embedding.h"

namespace ceaff::baselines {

BaselineResult ScoreSimilarity(la::Matrix similarity) {
  BaselineResult result;
  std::vector<int64_t> gold(similarity.rows());
  std::iota(gold.begin(), gold.end(), int64_t{0});
  matching::MatchResult match = matching::GreedyIndependent(similarity);
  result.accuracy = eval::Accuracy(match, gold);
  result.ranking = eval::ComputeRankingMetrics(similarity, gold);
  result.similarity = std::move(similarity);
  return result;
}

namespace {

/// Cosine similarity between test-source rows of emb1 and test-target rows
/// of emb2.
la::Matrix TestSimilarity(const kg::KgPair& pair, const la::Matrix& emb1,
                          const la::Matrix& emb2) {
  std::vector<uint32_t> test_src, test_tgt;
  core::TestIds(pair, &test_src, &test_tgt);
  return la::CosineSimilarityK(la::KernelContext(),
                               core::GatherRows(emb1, test_src),
                               core::GatherRows(emb2, test_tgt));
}

/// Merged-KG triple list for shared-space TransE: KG2 entity ids offset by
/// |E1|, KG2 relation ids offset by |R1|, plus swap triples for every
/// alignment pair in `links` (each KG1 triple incident to a linked entity
/// is duplicated with the linked KG2 entity substituted, and vice versa).
std::vector<kg::Triple> MergedTriples(
    const kg::KgPair& pair, const std::vector<kg::AlignmentPair>& links) {
  const uint32_t e_off = static_cast<uint32_t>(pair.kg1.num_entities());
  const uint32_t r_off = static_cast<uint32_t>(pair.kg1.num_relations());
  std::vector<kg::Triple> out;
  out.reserve(pair.kg1.num_triples() + pair.kg2.num_triples());
  for (const kg::Triple& t : pair.kg1.triples()) out.push_back(t);
  for (const kg::Triple& t : pair.kg2.triples()) {
    out.push_back({t.head + e_off, t.relation + r_off, t.tail + e_off});
  }
  // Entity-level swap maps.
  std::vector<int64_t> kg1_to_kg2(pair.kg1.num_entities(), -1);
  std::vector<int64_t> kg2_to_kg1(pair.kg2.num_entities(), -1);
  for (const kg::AlignmentPair& p : links) {
    kg1_to_kg2[p.source] = static_cast<int64_t>(p.target + e_off);
    kg2_to_kg1[p.target] = static_cast<int64_t>(p.source);
  }
  size_t base = out.size();
  for (size_t i = 0; i < base; ++i) {
    kg::Triple t = out[i];
    bool head_in_kg1 = t.head < e_off;
    int64_t h2 = head_in_kg1 ? kg1_to_kg2[t.head]
                             : kg2_to_kg1[t.head - e_off];
    bool tail_in_kg1 = t.tail < e_off;
    int64_t t2 = tail_in_kg1 ? kg1_to_kg2[t.tail]
                             : kg2_to_kg1[t.tail - e_off];
    if (h2 >= 0) out.push_back({static_cast<uint32_t>(h2), t.relation,
                                t.tail});
    if (t2 >= 0) out.push_back({t.head, t.relation,
                                static_cast<uint32_t>(t2)});
  }
  return out;
}

/// Splits a merged entity embedding into per-KG views.
void SplitMerged(const la::Matrix& merged, size_t n1, size_t n2,
                 la::Matrix* emb1, la::Matrix* emb2) {
  *emb1 = la::Matrix(n1, merged.cols());
  *emb2 = la::Matrix(n2, merged.cols());
  for (size_t i = 0; i < n1; ++i) {
    const float* s = merged.row(i);
    float* d = emb1->row(i);
    for (size_t c = 0; c < merged.cols(); ++c) d[c] = s[c];
  }
  for (size_t i = 0; i < n2; ++i) {
    const float* s = merged.row(n1 + i);
    float* d = emb2->row(i);
    for (size_t c = 0; c < merged.cols(); ++c) d[c] = s[c];
  }
}

}  // namespace

IPTransE::IPTransE() : options_(Options()) {}
BootEALite::BootEALite() : options_(Options()) {}
JapeLite::JapeLite() : options_(Options()) {}
RandomWalkAlign::RandomWalkAlign() : options_(Options()) {}
RepresentationFusionAlign::RepresentationFusionAlign()
    : options_(Options()) {}

StatusOr<BaselineResult> RepresentationFusionAlign::Run(
    const kg::KgPair& pair) {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "RepresentationFusionAlign needs a word-embedding store");
  }
  // Structural view.
  la::SparseMatrix a1 = kg::BuildAdjacency(pair.kg1);
  la::SparseMatrix a2 = kg::BuildAdjacency(pair.kg2);
  embed::GcnAligner gcn(std::move(a1), std::move(a2), options_.gcn);
  CEAFF_RETURN_IF_ERROR(gcn.Train(pair.seed_alignment).status());

  // Semantic (name) view.
  auto all_names = [](const kg::KnowledgeGraph& g) {
    std::vector<std::string> names;
    names.reserve(g.num_entities());
    for (kg::EntityId id = 0; id < g.num_entities(); ++id) {
      names.push_back(g.entity_name(id));
    }
    return names;
  };
  la::Matrix n1 = text::EmbedNames(*store_, all_names(pair.kg1));
  la::Matrix n2 = text::EmbedNames(*store_, all_names(pair.kg2));

  // Unified representation (representation-level fusion).
  auto unify = [&](la::Matrix structural, la::Matrix name) {
    structural.L2NormalizeRows();
    name.L2NormalizeRows();
    structural.Scale(options_.structural_weight);
    name.Scale(1.0f - options_.structural_weight);
    if (options_.mode == Options::Mode::kConcat) {
      la::Matrix out(structural.rows(), structural.cols() + name.cols());
      for (size_t r = 0; r < out.rows(); ++r) {
        float* dst = out.row(r);
        const float* s = structural.row(r);
        for (size_t c = 0; c < structural.cols(); ++c) dst[c] = s[c];
        const float* nn = name.row(r);
        for (size_t c = 0; c < name.cols(); ++c) {
          dst[structural.cols() + c] = nn[c];
        }
      }
      return out;
    }
    // Additive superposition: both views occupy the same coordinates
    // (name zero-padded or truncated to the structural dimension).
    la::Matrix out = std::move(structural);
    for (size_t r = 0; r < out.rows(); ++r) {
      float* dst = out.row(r);
      const float* nn = name.row(r);
      size_t overlap = std::min(out.cols(), name.cols());
      for (size_t c = 0; c < overlap; ++c) dst[c] += nn[c];
    }
    return out;
  };
  la::Matrix u1 = unify(gcn.embeddings1(), std::move(n1));
  la::Matrix u2 = unify(gcn.embeddings2(), std::move(n2));
  return ScoreSimilarity(TestSimilarity(pair, u1, u2));
}

NaeaLite::NaeaLite() : options_(Options()) {}

namespace {

/// Attention-weighted neighbour aggregation: out(e) = Σ_j α_j emb(j) over
/// the undirected neighbours j of e, α = softmax(cos(e, j) / τ).
la::Matrix NeighbourAttention(const kg::KnowledgeGraph& g,
                              const la::Matrix& emb, float temperature) {
  la::Matrix normalized = emb;
  normalized.L2NormalizeRows();
  std::vector<std::vector<uint32_t>> adj(g.num_entities());
  for (const kg::Triple& t : g.triples()) {
    adj[t.head].push_back(t.tail);
    adj[t.tail].push_back(t.head);
  }
  la::Matrix out(emb.rows(), emb.cols());
  std::vector<double> weights;
  for (size_t e = 0; e < adj.size(); ++e) {
    if (adj[e].empty()) continue;
    const float* ve = normalized.row(e);
    weights.clear();
    double max_logit = -1e30;
    for (uint32_t j : adj[e]) {
      const float* vj = normalized.row(j);
      double dot = 0.0;
      for (size_t c = 0; c < normalized.cols(); ++c) dot += ve[c] * vj[c];
      double logit = dot / temperature;
      weights.push_back(logit);
      max_logit = std::max(max_logit, logit);
    }
    double z = 0.0;
    for (double& w : weights) {
      w = std::exp(w - max_logit);
      z += w;
    }
    float* dst = out.row(e);
    for (size_t k = 0; k < adj[e].size(); ++k) {
      const float* vj = emb.row(adj[e][k]);
      float alpha = static_cast<float>(weights[k] / z);
      for (size_t c = 0; c < emb.cols(); ++c) dst[c] += alpha * vj[c];
    }
  }
  return out;
}

/// Concatenates the entity-level and neighbour-level views with weights.
la::Matrix ConcatViews(la::Matrix entity, la::Matrix neighbour,
                       float neighbour_weight) {
  entity.L2NormalizeRows();
  neighbour.L2NormalizeRows();
  entity.Scale(1.0f - neighbour_weight);
  neighbour.Scale(neighbour_weight);
  la::Matrix out(entity.rows(), entity.cols() + neighbour.cols());
  for (size_t r = 0; r < out.rows(); ++r) {
    float* dst = out.row(r);
    const float* a = entity.row(r);
    for (size_t c = 0; c < entity.cols(); ++c) dst[c] = a[c];
    const float* b = neighbour.row(r);
    for (size_t c = 0; c < neighbour.cols(); ++c) {
      dst[entity.cols() + c] = b[c];
    }
  }
  return out;
}

}  // namespace

StatusOr<BaselineResult> NaeaLite::Run(const kg::KgPair& pair) {
  la::SparseMatrix a1 = kg::BuildAdjacency(pair.kg1);
  la::SparseMatrix a2 = kg::BuildAdjacency(pair.kg2);
  embed::GcnAligner gcn(std::move(a1), std::move(a2), options_.gcn);
  CEAFF_RETURN_IF_ERROR(gcn.Train(pair.seed_alignment).status());
  la::Matrix u1 = ConcatViews(
      gcn.embeddings1(),
      NeighbourAttention(pair.kg1, gcn.embeddings1(), options_.temperature),
      options_.neighbour_weight);
  la::Matrix u2 = ConcatViews(
      gcn.embeddings2(),
      NeighbourAttention(pair.kg2, gcn.embeddings2(), options_.temperature),
      options_.neighbour_weight);
  return ScoreSimilarity(TestSimilarity(pair, u1, u2));
}

StatusOr<BaselineResult> RandomWalkAlign::Run(const kg::KgPair& pair) {
  size_t n1 = pair.kg1.num_entities(), n2 = pair.kg2.num_entities();
  embed::RandomWalkEmbedder embedder(n1 + n2, options_.walk);
  CEAFF_RETURN_IF_ERROR(
      embedder.Train(embed::MergedEdgeList(pair, pair.seed_alignment)));
  la::Matrix emb1, emb2;
  SplitMerged(embedder.embeddings(), n1, n2, &emb1, &emb2);
  return ScoreSimilarity(TestSimilarity(pair, emb1, emb2));
}

StatusOr<BaselineResult> JapeLite::Run(const kg::KgPair& pair) {
  la::SparseMatrix a1 = kg::BuildAdjacency(pair.kg1);
  la::SparseMatrix a2 = kg::BuildAdjacency(pair.kg2);
  embed::GcnAligner gcn(std::move(a1), std::move(a2), options_.gcn);
  CEAFF_RETURN_IF_ERROR(gcn.Train(pair.seed_alignment).status());
  la::Matrix structural =
      TestSimilarity(pair, gcn.embeddings1(), gcn.embeddings2());
  std::vector<uint32_t> test_src, test_tgt;
  core::TestIds(pair, &test_src, &test_tgt);
  kg::AttributeSimilarityOptions attr_opt;
  attr_opt.use_values = false;  // JAPE uses attribute types, not values
  la::Matrix attribute = kg::AttributeSimilarityMatrix(
      pair.kg1, pair.kg2, test_src, test_tgt, attr_opt);
  la::Matrix fused = la::WeightedSum(
      {&structural, &attribute},
      {options_.structural_weight, 1.0 - options_.structural_weight});
  return ScoreSimilarity(std::move(fused));
}

StatusOr<BaselineResult> MTransE::Run(const kg::KgPair& pair) {
  embed::TranseModel m1(pair.kg1.num_entities(), pair.kg1.num_relations(),
                        options_);
  embed::TranseOptions opt2 = options_;
  opt2.seed = Rng::SplitMix64(options_.seed ^ 0x2222ull);
  embed::TranseModel m2(pair.kg2.num_entities(), pair.kg2.num_relations(),
                        opt2);
  CEAFF_RETURN_IF_ERROR(m1.Train(pair.kg1.triples()).status());
  CEAFF_RETURN_IF_ERROR(m2.Train(pair.kg2.triples()).status());
  la::Matrix transform = embed::LearnLinearTransform(
      m1.entity_embeddings(), m2.entity_embeddings(), pair.seed_alignment);
  la::Matrix projected =
      embed::ApplyLinearTransform(m1.entity_embeddings(), transform);
  return ScoreSimilarity(
      TestSimilarity(pair, projected, m2.entity_embeddings()));
}

StatusOr<BaselineResult> TransEShared::Run(const kg::KgPair& pair) {
  size_t n1 = pair.kg1.num_entities(), n2 = pair.kg2.num_entities();
  embed::TranseModel model(n1 + n2,
                           pair.kg1.num_relations() + pair.kg2.num_relations(),
                           options_);
  std::vector<kg::Triple> triples = MergedTriples(pair, pair.seed_alignment);
  CEAFF_RETURN_IF_ERROR(model.Train(triples).status());
  la::Matrix emb1, emb2;
  SplitMerged(model.entity_embeddings(), n1, n2, &emb1, &emb2);
  return ScoreSimilarity(TestSimilarity(pair, emb1, emb2));
}

StatusOr<BaselineResult> IPTransE::Run(const kg::KgPair& pair) {
  size_t n1 = pair.kg1.num_entities(), n2 = pair.kg2.num_entities();
  embed::TranseOptions opts = options_.transe;
  // Spread the epoch budget over the iterations.
  opts.epochs = std::max<size_t>(1, opts.epochs / std::max<size_t>(
                                        1, options_.iterations));
  embed::TranseModel model(n1 + n2,
                           pair.kg1.num_relations() + pair.kg2.num_relations(),
                           opts);
  std::vector<kg::AlignmentPair> links = pair.seed_alignment;
  la::Matrix emb1, emb2;
  for (size_t it = 0; it < std::max<size_t>(1, options_.iterations); ++it) {
    std::vector<kg::Triple> triples = MergedTriples(pair, links);
    CEAFF_RETURN_IF_ERROR(model.Train(triples).status());
    SplitMerged(model.entity_embeddings(), n1, n2, &emb1, &emb2);
    // Harvest confident new links over the full entity sets.
    embed::BootstrapOptions bopt;
    bopt.min_similarity = options_.harvest_threshold;
    la::Matrix sim = la::CosineSimilarityK(la::KernelContext(), emb1, emb2);
    std::vector<kg::AlignmentPair> fresh =
        embed::HarvestConfidentPairs(sim, links, bopt);
    if (fresh.empty() && it + 1 < options_.iterations) break;
    links.insert(links.end(), fresh.begin(), fresh.end());
  }
  return ScoreSimilarity(TestSimilarity(pair, emb1, emb2));
}

StatusOr<BaselineResult> GcnAlignStructural::Run(const kg::KgPair& pair) {
  la::SparseMatrix a1 = kg::BuildAdjacency(pair.kg1);
  la::SparseMatrix a2 = kg::BuildAdjacency(pair.kg2);
  embed::GcnAligner gcn(std::move(a1), std::move(a2), options_);
  CEAFF_RETURN_IF_ERROR(gcn.Train(pair.seed_alignment).status());
  return ScoreSimilarity(
      TestSimilarity(pair, gcn.embeddings1(), gcn.embeddings2()));
}

StatusOr<BaselineResult> BootEALite::Run(const kg::KgPair& pair) {
  la::SparseMatrix a1 = kg::BuildAdjacency(pair.kg1);
  la::SparseMatrix a2 = kg::BuildAdjacency(pair.kg2);
  embed::GcnOptions opts = options_.gcn;
  opts.epochs = std::max<size_t>(
      1, opts.epochs / std::max<size_t>(1, options_.rounds));
  std::vector<kg::AlignmentPair> links = pair.seed_alignment;
  embed::GcnAligner gcn(std::move(a1), std::move(a2), opts);
  for (size_t round = 0; round < std::max<size_t>(1, options_.rounds);
       ++round) {
    CEAFF_RETURN_IF_ERROR(gcn.Train(links).status());
    embed::BootstrapOptions bopt;
    bopt.min_similarity = options_.harvest_threshold;
    la::Matrix sim = la::CosineSimilarityK(
        la::KernelContext(), gcn.embeddings1(), gcn.embeddings2());
    std::vector<kg::AlignmentPair> fresh =
        embed::HarvestConfidentPairs(sim, links, bopt);
    if (fresh.empty()) break;
    links.insert(links.end(), fresh.begin(), fresh.end());
  }
  return ScoreSimilarity(
      TestSimilarity(pair, gcn.embeddings1(), gcn.embeddings2()));
}

}  // namespace ceaff::baselines
