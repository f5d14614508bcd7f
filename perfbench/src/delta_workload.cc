// Workload `delta_ingest`: writes beside reads. Set-up aligns DBP15K_ZH_EN
// at scale 1 and exports a delta state plus a generational index that an
// AlignmentService serves. The measured phase repeats one fixed cycle:
// journal-append one batch, ApplyDelta, AlignmentService::Reload, then TOPK
// the patched names plus a fixed read set. Every batch has the same
// composition (3 renames, and per KG one new entity with two triples that
// joins the serving split), so cycle times stay comparable.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "bench.h"
#include "ceaff/common/random.h"
#include "ceaff/common/string_util.h"
#include "ceaff/core/pipeline.h"
#include "ceaff/data/synthetic.h"
#include "ceaff/delta/delta_apply.h"
#include "ceaff/delta/delta_journal.h"
#include "ceaff/delta/delta_patch.h"
#include "ceaff/delta/delta_state.h"
#include "ceaff/serve/service.h"
#include "pipeline_options.h"

namespace perfbench {

namespace {

using ceaff::Rng;
using ceaff::Status;
using ceaff::delta::PatchOp;
using ceaff::delta::PatchRecord;

constexpr size_t kTopK = 10;
constexpr size_t kReadSet = 64;

/// A name made of tokens the generated vocabularies do not use.
std::string FreshName(Rng& rng, const std::string& tag) {
  static const char* kSyllables[] = {"zo", "qu", "xi", "vy", "zu", "qa",
                                     "xe", "vo"};
  std::string name;
  for (size_t w = 0; w < 3; ++w) {
    name += kSyllables[rng.NextBounded(8)];
    name += kSyllables[rng.NextBounded(8)];
    name += ' ';
  }
  return name + tag;
}

PatchRecord Record(PatchOp op, uint8_t kg) {
  PatchRecord r;
  r.op = op;
  r.kg = kg;
  return r;
}

/// One batch and the names it makes visible.
struct Batch {
  std::vector<PatchRecord> records;
  /// Target-side names a TOPK answer must list after the reload.
  std::vector<std::string> target_names;
  /// Source-side names a pair lookup must resolve after the reload.
  std::vector<std::string> source_names;
};

/// Batch `cycle`: renames two serving targets and one serving source, and
/// in each KG adds an entity linked by two triples and serves it.
/// Renames never touch the first kReadSet serving sources (the read set).
Batch MakeBatch(const ceaff::delta::DeltaState& base, uint64_t cycle,
                Rng& rng) {
  Batch b;
  const std::string tag =
      ceaff::StrFormat("c%llu", static_cast<unsigned long long>(cycle));
  // Two distinct serving targets (renaming one twice would hide the first
  // name).
  const size_t first = rng.NextBounded(base.target_ids.size());
  const size_t second =
      (first + 1 + rng.NextBounded(base.target_ids.size() - 1)) %
      base.target_ids.size();
  for (size_t i = 0; i < 2; ++i) {
    PatchRecord r = Record(PatchOp::kRenameEntity, 2);
    r.uri = base.kg2.entity_uri(base.target_ids[i == 0 ? first : second]);
    r.name = FreshName(rng, tag + "t" + std::to_string(i));
    b.target_names.push_back(r.name);
    b.records.push_back(r);
  }
  {
    PatchRecord r = Record(PatchOp::kRenameEntity, 1);
    r.uri = base.kg1.entity_uri(base.source_ids[
        kReadSet + rng.NextBounded(base.source_ids.size() - kReadSet)]);
    r.name = FreshName(rng, tag + "s");
    b.source_names.push_back(r.name);
    b.records.push_back(r);
  }
  for (uint8_t kg = 1; kg <= 2; ++kg) {
    const ceaff::kg::KnowledgeGraph& g = kg == 1 ? base.kg1 : base.kg2;
    PatchRecord add = Record(PatchOp::kAddEntity, kg);
    add.uri = "perfbench:new/kg" + std::to_string(kg) + "/" + tag;
    add.name = FreshName(rng, tag + "n" + std::to_string(kg));
    (kg == 1 ? b.source_names : b.target_names).push_back(add.name);
    b.records.push_back(add);
    for (int dir = 0; dir < 2; ++dir) {
      PatchRecord t = Record(PatchOp::kAddTriple, kg);
      const std::string other = g.entity_uri(
          static_cast<uint32_t>(rng.NextBounded(g.num_entities())));
      t.head = dir == 0 ? add.uri : other;
      t.tail = dir == 0 ? other : add.uri;
      t.rel = g.relation_uri(
          static_cast<uint32_t>(rng.NextBounded(g.num_relations())));
      b.records.push_back(t);
    }
    PatchRecord serve = Record(PatchOp::kServeEntity, kg);
    serve.uri = add.uri;
    b.records.push_back(serve);
  }
  return b;
}

struct Fixture {
  std::string wal, state, index;
  std::unique_ptr<ceaff::delta::DeltaJournal> journal;
  std::unique_ptr<ceaff::serve::AlignmentService> service;
  ceaff::delta::DeltaState base;
  /// hits@1 of the alignment the service starts from.
  double hits1 = 0.0;
};

/// The set-up: align, export the index (generational) and the delta state,
/// open the journal and the service.
Status SetUp(const RunConfig& config, const std::string& dir, Tracer* tracer,
             uint64_t rep, Fixture* f) {
  ScopedSpan root(tracer, "setup", -1, rep);
  f->wal = dir + "/wal";
  f->state = dir + "/state";
  f->index = dir + "/index";
  CEAFF_RETURN_IF_ERROR(ResetDir(dir));
  CEAFF_RETURN_IF_ERROR(ResetDir(f->index));
  CEAFF_ASSIGN_OR_RETURN(ceaff::data::SyntheticKgOptions kg_options,
                         ceaff::data::BenchmarkConfigByName(
                             "DBP15K_ZH_EN", config.smoke ? 0.1 : 1.0,
                             config.seed));
  CEAFF_ASSIGN_OR_RETURN(ceaff::data::SyntheticBenchmark bench,
                         ceaff::data::GenerateBenchmark(kg_options));
  ceaff::core::CeaffOptions options = CliAlignOptions(config.threads);
  options.force_exact_string_kernel = true;  // what delta export requires
  options.export_index_path = f->index;
  {
    ScopedSpan span(tracer, "align", root.id(), rep);
    ceaff::core::CeaffPipeline pipe(&bench.pair, &bench.store, options);
    CEAFF_ASSIGN_OR_RETURN(ceaff::core::CeaffFeatures features,
                           pipe.GenerateFeatures());
    CEAFF_ASSIGN_OR_RETURN(ceaff::core::CeaffResult result,
                           pipe.RunOnFeatures(features));
    f->hits1 = result.accuracy;
    CEAFF_RETURN_IF_ERROR(pipe.ExportIndex(features, result));
    CEAFF_ASSIGN_OR_RETURN(
        f->base, ceaff::delta::BuildDeltaState(bench.pair, bench.store, options,
                                               features, result, "perfbench"));
  }
  {
    ScopedSpan span(tracer, "delta.export", root.id(), rep);
    CEAFF_ASSIGN_OR_RETURN(auto store,
                           ceaff::delta::OpenDeltaStateStore(f->state));
    CEAFF_RETURN_IF_ERROR(ceaff::delta::SaveDeltaState(f->base, store.get()));
    CEAFF_ASSIGN_OR_RETURN(f->journal,
                           ceaff::delta::DeltaJournal::Open(f->wal));
  }
  ceaff::serve::ServiceOptions serve_options;
  serve_options.num_threads = config.threads;
  ScopedSpan span(tracer, "serve.load", root.id(), rep);
  CEAFF_ASSIGN_OR_RETURN(f->service, ceaff::serve::AlignmentService::Open(
                                         f->index, serve_options));
  return Status::OK();
}

/// Whether a TOPK answer lists a target named `name`.
bool Lists(const ceaff::StatusOr<ceaff::serve::TopKResult>& r,
           const std::string& name) {
  if (!r.ok() || r->degraded) return false;
  for (const auto& c : r->candidates) {
    if (c.target_name == name) return true;
  }
  return false;
}

ceaff::StatusOr<std::string> StateBytes(const std::string& dir) {
  CEAFF_ASSIGN_OR_RETURN(auto store, ceaff::delta::OpenDeltaStateStore(dir));
  CEAFF_ASSIGN_OR_RETURN(ceaff::delta::DeltaState state,
                         ceaff::delta::LoadDeltaState(store.get()));
  return ceaff::delta::SerializeDeltaState(state);
}

}  // namespace

Status RunDeltaIngest(const RunConfig& config, Tracer* tracer,
                      Report* report) {
  std::vector<double> setup_s;
  Fixture f;
  for (size_t r = 0; MoreSetups(setup_s); ++r) {
    f = Fixture();
    const uint64_t t0 = NowNs();
    CEAFF_RETURN_IF_ERROR(SetUp(config, config.work_dir + "/setup" +
                                            std::to_string(r),
                                tracer, r, &f));
    setup_s.push_back(NsToS(NowNs() - t0));
  }
  report->E2e("setup_s", Median(setup_s), "s");
  report->E2e("quality", f.hits1, "ratio");
  // The untouched base state, for the repair-vs-rebuild check.
  const std::string base_state = config.work_dir + "/base_state";
  std::error_code ec;
  std::filesystem::copy(f.state, base_state,
                        std::filesystem::copy_options::recursive, ec);
  if (ec) return Status::IOError("cannot copy " + f.state);

  std::vector<std::string> read_set;
  for (size_t i = 0; i < kReadSet; ++i) {
    read_set.push_back(f.base.kg1.entity_name(f.base.source_ids[i]));
  }
  ceaff::delta::DeltaApplyOptions apply;
  apply.journal_dir = f.wal;
  apply.state_dir = f.state;
  apply.index_dir = f.index;
  apply.num_threads = config.threads;

  Rng rng(config.seed * 0x9e3779b97f4a7c15ull + 3);
  std::vector<double> visible_ms, read_ms;
  struct CycleLayers {
    double append_ms, repair_ms, verify_ms, publish_ms, reload_ms;
    double dirty_rows, dirty_struct;
  };
  std::vector<CycleLayers> layers;
  const uint64_t start = NowNs();
  for (uint64_t cycle = 0;
       visible_ms.size() < 3 || NsToS(NowNs() - start) < config.seconds;
       ++cycle) {
    const Batch batch = MakeBatch(f.base, cycle, rng);
    ScopedSpan root(tracer, "delta.cycle", -1, cycle);
    CycleLayers cl{};

    const uint64_t t_append = NowNs();
    {
      ScopedSpan span(tracer, "delta.append", root.id(), cycle);
      for (const PatchRecord& r : batch.records) {
        auto id = f.journal->Append(r);
        report->Op(id.ok());
        if (!id.ok()) return id.status();
      }
    }
    const uint64_t t_apply = NowNs();
    cl.append_ms = NsToMs(t_apply - t_append);

    const int64_t apply_span =
        tracer ? tracer->Begin("delta.apply", root.id(), cycle) : -1;
    auto applied = ceaff::delta::ApplyDelta(apply);
    const uint64_t t_reload = NowNs();
    if (tracer != nullptr) tracer->End(apply_span);
    report->Op(applied.ok() && !applied->no_op && !applied->rebuilt);
    if (!applied.ok()) return applied.status();
    cl.repair_ms = applied->seconds_repair * 1e3;
    cl.verify_ms = applied->seconds_verify * 1e3;
    cl.publish_ms = applied->seconds_publish * 1e3;
    cl.dirty_rows = static_cast<double>(applied->stats.dirty_rows);
    cl.dirty_struct =
        static_cast<double>(applied->stats.dirty_struct_entities);
    if (tracer != nullptr) {
      // ApplyDelta runs repair, verify and publish last, in that order.
      uint64_t at = t_reload;
      const std::pair<const char*, double> stages[] = {
          {"delta.publish", cl.publish_ms},
          {"delta.verify", cl.verify_ms},
          {"delta.repair", cl.repair_ms}};
      for (const auto& [name, ms] : stages) {
        const uint64_t ns = std::min<uint64_t>(
            static_cast<uint64_t>(ms * 1e6), at - t_apply);
        tracer->Add(name, at - ns, at, apply_span, cycle);
        at -= ns;
      }
    }

    Status reloaded;
    {
      ScopedSpan span(tracer, "serve.reload", root.id(), cycle);
      reloaded = f.service->Reload(f.index);
    }
    const uint64_t t_read = NowNs();
    cl.reload_ms = NsToMs(t_read - t_reload);
    report->Op(reloaded.ok());
    if (!reloaded.ok()) return reloaded;

    // Reads: the patched names first (the first answer that serves the
    // patch ends the visibility interval), then the fixed read set.
    bool visible = false;
    auto topk = [&](const std::string& name) {
      ScopedSpan span(tracer, "serve.topk", root.id(), cycle);
      const uint64_t t0 = NowNs();
      auto r = f.service->TopK(name, kTopK);
      const uint64_t t1 = NowNs();
      read_ms.push_back(NsToMs(t1 - t0));
      return std::make_pair(std::move(r), t1);
    };
    for (const std::string& name : batch.target_names) {
      auto [r, t1] = topk(name);
      const bool served = Lists(r, name);
      report->Op(served);
      report->Check(served, "patched target '" + name +
                                "' not served after its reload");
      if (served && !visible) {
        visible_ms.push_back(NsToMs(t1 - t_append));
        visible = true;
      }
    }
    for (const std::string& name : batch.source_names) {
      auto pair = f.service->LookupPair(name);
      const bool served = pair.ok() && pair->source_name == name;
      report->Op(served);
      report->Check(served, "patched source '" + name +
                                "' not served after its reload");
    }
    for (const std::string& name : read_set) {
      const auto r = topk(name).first;
      report->Op(r.ok() && !r->degraded);
    }
    layers.push_back(cl);
  }
  const uint64_t end = NowNs();

  // The operation is one cycle, timed from its first append to the first
  // answer that serves its patch.
  report->E2e("latency_p50_ms", Median(visible_ms), "ms");
  std::printf("cycles %zu per_s %.6g reads %zu p50_ms %.6g\n",
              visible_ms.size(),
              static_cast<double>(visible_ms.size()) / NsToS(end - start),
              read_ms.size(), Median(read_ms));

  // The final state must equal an exhaustive RebuildDelta of the same
  // journal replayed onto a copy of the base state.
  const std::string copy = config.work_dir + "/rebuild";
  CEAFF_RETURN_IF_ERROR(ResetDir(copy));
  std::filesystem::copy(f.wal, copy + "/wal",
                        std::filesystem::copy_options::recursive, ec);
  if (!ec) {
    std::filesystem::copy(base_state, copy + "/state",
                          std::filesystem::copy_options::recursive, ec);
  }
  if (ec) return Status::IOError("cannot copy the journal for the rebuild");
  ceaff::delta::DeltaApplyOptions rebuild;
  rebuild.journal_dir = copy + "/wal";
  rebuild.state_dir = copy + "/state";
  rebuild.num_threads = config.threads;
  CEAFF_RETURN_IF_ERROR(ceaff::delta::RebuildDelta(rebuild).status());
  CEAFF_ASSIGN_OR_RETURN(const std::string repaired, StateBytes(f.state));
  CEAFF_ASSIGN_OR_RETURN(const std::string rebuilt,
                         StateBytes(copy + "/state"));
  report->Check(repaired == rebuilt,
                "final ApplyDelta state differs from RebuildDelta of the "
                "same journal");
  if (tracer == nullptr) return Status::OK();

  auto median_of = [&](double CycleLayers::*field) {
    std::vector<double> v;
    for (const CycleLayers& cl : layers) v.push_back(cl.*field);
    return Median(v);
  };
  report->Layer("delta.append_ms", median_of(&CycleLayers::append_ms), "ms");
  report->Layer("delta.repair_ms", median_of(&CycleLayers::repair_ms), "ms");
  report->Layer("delta.verify_ms", median_of(&CycleLayers::verify_ms), "ms");
  report->Layer("delta.publish_ms", median_of(&CycleLayers::publish_ms), "ms");
  // Self time of the apply span: state load, journal read, bookkeeping.
  report->Layer("delta.load_ms",
                1e3 * MedianSelfSeconds(*tracer, "delta.apply"), "ms");
  report->Layer("delta.dirty_rows", median_of(&CycleLayers::dirty_rows),
                "count");
  report->Layer("delta.dirty_struct_entities",
                median_of(&CycleLayers::dirty_struct), "count");
  report->Layer("serve.reload_ms", median_of(&CycleLayers::reload_ms), "ms");
  report->Layer("serve.load_s", MedianSelfSeconds(*tracer, "serve.load"), "s");
  return Status::OK();
}

}  // namespace perfbench
