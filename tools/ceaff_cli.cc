// ceaff — command-line front end to the CEAFF entity-alignment library.
//
// Subcommands:
//   generate  Create a synthetic benchmark dataset on disk (TSV layout).
//   stats     Print statistics of a dataset directory.
//   align     Run CEAFF (or a configured variant) on a dataset and write
//             predicted correspondences.
//   eval      Score a prediction file against the dataset's test links.
//
// Examples:
//   ceaff generate --config DBP15K_ZH_EN --scale 0.25 --out /tmp/zh_en
//   ceaff align --data /tmp/zh_en --out /tmp/zh_en/pred.tsv
//   ceaff align --data /tmp/zh_en --decision independent --fusion fixed
//   ceaff eval --data /tmp/zh_en --pred /tmp/zh_en/pred.tsv

#include <csignal>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>

#include "ceaff/common/cancellation.h"
#include "ceaff/common/durable_io.h"
#include "ceaff/common/flags.h"
#include "ceaff/common/timer.h"
#include "ceaff/core/pipeline.h"
#include "ceaff/data/synthetic.h"
#include "ceaff/delta/delta_apply.h"
#include "ceaff/delta/delta_journal.h"
#include "ceaff/kg/io.h"
#include "ceaff/text/embedding_io.h"

using namespace ceaff;

namespace {

/// Process-wide run control: SIGINT requests cooperative cancellation
/// (RequestCancel is async-signal-safe), --deadline_ms arms the deadline.
/// A second SIGINT falls back to the default handler (hard kill) in case a
/// kernel is stuck.
CancellationToken g_cancel;

void HandleSigint(int signum) {
  g_cancel.RequestCancel();
  std::signal(signum, SIG_DFL);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Reads the shared ingestion flags: strict by default, `--lenient_io`
/// skips malformed lines up to `--io_error_budget` (default 100).
ParseOptions IoOptionsFromFlags(const FlagParser& flags) {
  ParseOptions options;
  options.lenient = flags.GetBool("lenient_io", false);
  options.max_errors = static_cast<size_t>(
      flags.GetInt("io_error_budget", 100));
  return options;
}

/// Reads an integer flag that sizes something (a thread count, a centroid
/// count, a row budget). False (after printing a usage error) when the
/// value is below `min`, so a negative value can never wrap to a huge
/// size_t.
bool SizeFlag(const FlagParser& flags, const char* cmd, const char* name,
              int64_t fallback, int64_t min, size_t* out) {
  const int64_t value = flags.GetInt(name, fallback);
  if (value < min) {
    std::fprintf(stderr, "%s: --%s must be >= %lld (got %lld)\n", cmd, name,
                 static_cast<long long>(min), static_cast<long long>(value));
    return false;
  }
  *out = static_cast<size_t>(value);
  return true;
}

/// Every ParseReport produced by this process's loads, accumulated so the
/// end-of-run ingestion summary (and the --lenient_drop_threshold exit
/// verdict) covers all of them.
std::vector<ParseReport> g_parse_reports;

/// Prints per-file skip summaries of a lenient load to stderr and records
/// the reports for the end-of-run summary.
void ReportParseIssues(const std::vector<ParseReport>& reports) {
  for (const ParseReport& report : reports) {
    g_parse_reports.push_back(report);
    if (report.clean()) continue;
    std::fprintf(stderr, "warning: %s\n", report.ToString().c_str());
    for (const ParseIssue& issue : report.issues) {
      std::fprintf(stderr, "  %s:%zu: %s\n", report.path.c_str(), issue.line,
                   issue.reason.c_str());
    }
  }
}

/// End-of-run ingestion summary: per-file totals plus the overall drop
/// fraction. When --lenient_io skipped more than --lenient_drop_threshold
/// of all records, an otherwise-successful run exits 3 — so automation
/// notices a silently decaying input feed even though the run "worked".
int FinishWithIngestSummary(const FlagParser& flags, int rc) {
  const double threshold = flags.GetDouble("lenient_drop_threshold", 0.01);
  size_t loaded = 0, skipped = 0, dirty_files = 0;
  for (const ParseReport& report : g_parse_reports) {
    loaded += report.records_loaded;
    skipped += report.issues.size();
    if (!report.clean()) ++dirty_files;
  }
  if (skipped == 0) return rc;
  std::fprintf(stderr,
               "ingestion summary: %zu files (%zu with skips), %zu records "
               "loaded, %zu lines skipped\n",
               g_parse_reports.size(), dirty_files, loaded, skipped);
  for (const ParseReport& report : g_parse_reports) {
    if (report.clean()) continue;
    std::fprintf(stderr, "  %s\n", report.ToString().c_str());
  }
  const double dropped =
      static_cast<double>(skipped) / static_cast<double>(loaded + skipped);
  if (rc == 0 && dropped > threshold) {
    std::fprintf(stderr,
                 "error: lenient ingestion dropped %.2f%% of input lines "
                 "(threshold %.2f%%, --lenient_drop_threshold)\n",
                 dropped * 100.0, threshold * 100.0);
    return 3;
  }
  return rc;
}

/// Loads a dataset honouring --lenient_io / --io_error_budget.
Status LoadDataset(const FlagParser& flags, const std::string& dir,
                   kg::KgPair* pair) {
  std::vector<ParseReport> reports;
  Status st = kg::LoadKgPair(dir, pair, IoOptionsFromFlags(flags), &reports);
  ReportParseIssues(reports);
  return st;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ceaff <generate|stats|align|eval|delta> "
               "[--flags]\n"
               "  generate --config NAME --scale S --out DIR [--seed N]\n"
               "  stats    --data DIR\n"
               "  align    --data DIR [--out FILE] [--fusion adaptive|fixed|"
               "learned]\n"
               "           [--decision collective|independent|hungarian]\n"
               "           [--no-structural] [--no-semantic] [--no-string] "
               "[--attributes]\n"
               "           [--gcn-dim N] [--gcn-epochs N] [--theta1 X] "
               "[--theta2 X]\n"
               "           [--embeddings FILE]  word vectors (default: the "
               "dataset's word_vectors.vec,\n"
               "           else hash vectors of --embed-dim N)\n"
               "           [--checkpoint_dir DIR] [--resume] "
               "[--deadline_ms N]\n"
               "           [--export_index FILE] [--export_ann BOOL] "
               "[--ann_centroids N]\n"
               "           [--threads N]\n"
               "           [--export_delta_state DIR]  also publish a delta "
               "ingestion state\n"
               "  eval     --data DIR --pred FILE\n"
               "  delta    <append|apply|rebuild|status> --journal DIR "
               "--state DIR\n"
               "           [--index DIR] [--patch FILE] [--audit_rows N]\n"
               "           [--export_ann BOOL] [--ann_centroids N] "
               "[--threads N]\n"
               "common:    [--lenient_io] [--io_error_budget N]  skip up to N "
               "malformed\n"
               "           input lines instead of failing on the first one\n"
               "           [--lenient_drop_threshold F]  exit 3 when lenient "
               "ingestion\n"
               "           drops more than this fraction (default 0.01)\n");
  return 2;
}

/// The word store `generate` writes beside a dataset: the generator's own
/// word vectors (text::SaveNameVocabulary), so `align` on generated data
/// computes the semantic feature the benchmarks measure.
constexpr char kWordVectorsFile[] = "word_vectors.vec";

int CmdGenerate(const FlagParser& flags) {
  std::string config = flags.GetString("config", "DBP15K_FR_EN");
  double scale = flags.GetDouble("scale", 0.25);
  std::string out = flags.GetString("out", "");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 2020));
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out DIR is required\n");
    return 2;
  }
  auto cfg = data::BenchmarkConfigByName(config, scale, seed);
  if (!cfg.ok()) return Fail(cfg.status());
  auto bench = data::GenerateBenchmark(cfg.value());
  if (!bench.ok()) return Fail(bench.status());
  Status st = kg::SaveKgPair(bench->pair, out);
  if (!st.ok()) return Fail(st);
  std::vector<std::string> names;
  for (const kg::KnowledgeGraph* g : {&bench->pair.kg1, &bench->pair.kg2}) {
    for (uint32_t e = 0; e < g->num_entities(); ++e) {
      names.push_back(g->entity_name(e));
    }
  }
  st = text::SaveNameVocabulary(bench->store, names,
                                out + "/" + kWordVectorsFile);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s (%zu + %zu entities, %zu + %zu triples, %zu seed / "
              "%zu test links) to %s\n",
              config.c_str(), bench->pair.kg1.num_entities(),
              bench->pair.kg2.num_entities(), bench->pair.kg1.num_triples(),
              bench->pair.kg2.num_triples(),
              bench->pair.seed_alignment.size(),
              bench->pair.test_alignment.size(), out.c_str());
  return 0;
}

int CmdStats(const FlagParser& flags) {
  std::string dir = flags.GetString("data", "");
  if (dir.empty()) {
    std::fprintf(stderr, "stats: --data DIR is required\n");
    return 2;
  }
  kg::KgPair pair;
  Status st = LoadDataset(flags, dir, &pair);
  if (!st.ok()) return Fail(st);
  auto print_kg = [](const char* name, const kg::KnowledgeGraph& g) {
    std::vector<uint32_t> deg = g.Degrees();
    double avg = 0;
    for (uint32_t d : deg) avg += d;
    if (!deg.empty()) avg /= static_cast<double>(deg.size());
    std::printf("%s: %zu entities, %zu relations, %zu triples, "
                "%zu attributes, %zu attribute triples, avg degree %.2f\n",
                name, g.num_entities(), g.num_relations(), g.num_triples(),
                g.num_attributes(), g.num_attribute_triples(), avg);
  };
  print_kg("KG1", pair.kg1);
  print_kg("KG2", pair.kg2);
  std::printf("seed links: %zu, test links: %zu\n",
              pair.seed_alignment.size(), pair.test_alignment.size());
  std::printf("degree-distribution KS statistic: %.3f\n",
              data::KsStatistic(pair.kg1.Degrees(), pair.kg2.Degrees()));
  return 0;
}

int CmdAlign(const FlagParser& flags) {
  std::string dir = flags.GetString("data", "");
  if (dir.empty()) {
    std::fprintf(stderr, "align: --data DIR is required\n");
    return 2;
  }
  kg::KgPair pair;
  Status st = LoadDataset(flags, dir, &pair);
  if (!st.ok()) return Fail(st);

  core::CeaffOptions options;
  options.checkpoint_dir = flags.GetString("checkpoint_dir", "");
  options.resume = flags.GetBool("resume", false);
  options.cancel = &g_cancel;
  int64_t deadline_ms = flags.GetInt("deadline_ms", 0);
  if (deadline_ms > 0) g_cancel.SetDeadlineAfterMillis(deadline_ms);
  std::signal(SIGINT, HandleSigint);
  if (options.resume && options.checkpoint_dir.empty()) {
    std::fprintf(stderr, "align: --resume requires --checkpoint_dir\n");
    return 2;
  }
  if (!options.checkpoint_dir.empty()) {
    options.stage_callback = [](const std::string& stage,
                                bool from_checkpoint) {
      std::fprintf(stderr, "stage %s: %s\n", stage.c_str(),
                   from_checkpoint ? "restored from checkpoint" : "computed");
    };
  }
  options.export_index_path = flags.GetString("export_index", "");
  options.export_dataset = flags.GetString("export_dataset", "ceaff");
  options.export_ann = flags.GetBool("export_ann", true);
  // --ann_centroids 0 = auto.
  if (!SizeFlag(flags, "align", "ann_centroids", 0, 0,
                &options.ann_centroids) ||
      !SizeFlag(flags, "align", "threads", 1, 1, &options.num_threads)) {
    return 2;
  }
  options.use_structural = !flags.GetBool("no-structural", false);
  options.use_semantic = !flags.GetBool("no-semantic", false);
  options.use_string = !flags.GetBool("no-string", false);
  options.use_attribute = flags.GetBool("attributes", false);
  options.gcn.dim = static_cast<size_t>(flags.GetInt("gcn-dim", 128));
  options.gcn.epochs = static_cast<size_t>(flags.GetInt("gcn-epochs", 200));
  options.gcn.learning_rate =
      static_cast<float>(flags.GetDouble("gcn-lr", 1.0));
  options.fusion.theta1 = flags.GetDouble("theta1", 0.98);
  options.fusion.theta2 = flags.GetDouble("theta2", 0.1);

  std::string fusion = flags.GetString("fusion", "adaptive");
  if (fusion == "fixed") {
    options.fusion_mode = core::FusionMode::kFixed;
  } else if (fusion == "learned") {
    options.fusion_mode = core::FusionMode::kLearned;
  } else if (fusion != "adaptive") {
    std::fprintf(stderr, "align: unknown --fusion %s\n", fusion.c_str());
    return 2;
  }
  std::string decision = flags.GetString("decision", "collective");
  if (decision == "independent") {
    options.decision_mode = core::DecisionMode::kIndependent;
  } else if (decision == "hungarian") {
    options.decision_mode = core::DecisionMode::kHungarian;
  } else if (decision == "greedy") {
    options.decision_mode = core::DecisionMode::kGreedyOneToOne;
  } else if (decision != "collective") {
    std::fprintf(stderr, "align: unknown --decision %s\n", decision.c_str());
    return 2;
  }

  // Without --embeddings, the generator's store when the dataset carries
  // one; otherwise deterministic hash-fallback vectors only (identical
  // spellings align — right for mono-lingual and closely-related pairs).
  // Pass --embeddings with pretrained multilingual vectors
  // (word2vec/GloVe/fastText text format) for distant language pairs.
  text::WordEmbeddingStore store(
      static_cast<size_t>(flags.GetInt("embed-dim", 64)), /*seed=*/17);
  std::string embeddings_path = flags.GetString("embeddings", "");
  if (embeddings_path.empty()) {
    auto generated = text::LoadNameVocabulary(dir + "/" + kWordVectorsFile);
    if (generated.ok()) {
      store = std::move(generated).value();
      std::printf("loaded the generator's word store (%zu vectors)\n",
                  store.explicit_tokens().size());
    } else if (!generated.status().IsNotFound()) {
      return Fail(generated.status());
    }
  } else {
    // Pretrained text-format vectors (word2vec/GloVe/fastText). Dimension
    // must match --embed-dim.
    text::EmbeddingIoOptions embedding_options;
    embedding_options.parse = IoOptionsFromFlags(flags);
    ParseReport embedding_report;
    st = text::LoadTextEmbeddings(embeddings_path, &store, embedding_options,
                                  &embedding_report);
    ReportParseIssues({embedding_report});
    if (!st.ok()) return Fail(st);
    std::printf("loaded %zu pretrained vectors from %s\n",
                store.explicit_tokens().size(), embeddings_path.c_str());
  }
  const std::string delta_state_dir = flags.GetString("export_delta_state", "");

  core::CeaffPipeline pipe(&pair, &store, options);
  WallTimer timer;
  core::CeaffResult result;
  if (delta_state_dir.empty()) {
    auto result_or = pipe.Run();
    if (!result_or.ok()) return Fail(result_or.status());
    result = std::move(*result_or);
  } else {
    // Delta export needs the intermediate features (frozen GCN inputs,
    // embeddings), so drive the stages by hand instead of Run().
    auto features_or = pipe.GenerateFeatures();
    if (!features_or.ok()) return Fail(features_or.status());
    auto result_or = pipe.RunOnFeatures(*features_or);
    if (!result_or.ok()) return Fail(result_or.status());
    result = std::move(*result_or);
    if (!options.export_index_path.empty()) {
      st = pipe.ExportIndex(*features_or, result);
      if (!st.ok()) return Fail(st);
    }
    auto state_or = delta::BuildDeltaState(pair, store, options, *features_or,
                                           result, options.export_dataset);
    if (!state_or.ok()) return Fail(state_or.status());
    auto dstore_or = delta::OpenDeltaStateStore(delta_state_dir);
    if (!dstore_or.ok()) return Fail(dstore_or.status());
    st = delta::SaveDeltaState(*state_or, dstore_or->get());
    if (!st.ok()) return Fail(st);
    std::printf("exported delta state (%zu x %zu serving split) to %s\n",
                state_or->source_ids.size(), state_or->target_ids.size(),
                delta_state_dir.c_str());
  }

  std::printf("accuracy: %.4f  (hits@10 %.4f, mrr %.4f)  in %.2fs\n",
              result.accuracy, result.ranking.hits_at_10,
              result.ranking.mrr, timer.ElapsedSeconds());
  if (!options.export_index_path.empty()) {
    std::printf("exported alignment index to %s\n",
                options.export_index_path.c_str());
  }
  if (!result.final_weights.empty()) {
    std::printf("final fusion weights:");
    for (double w : result.final_weights) std::printf(" %.3f", w);
    std::printf("\n");
  }

  std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    std::vector<kg::AlignmentPair> predicted;
    for (size_t i = 0; i < result.match.target_of_source.size(); ++i) {
      int64_t t = result.match.target_of_source[i];
      if (t < 0) continue;
      predicted.push_back(
          {pair.test_alignment[i].source,
           pair.test_alignment[static_cast<size_t>(t)].target});
    }
    st = kg::SaveAlignmentTsv(predicted, pair.kg1, pair.kg2, out);
    if (!st.ok()) return Fail(st);
    std::printf("wrote %zu predictions to %s\n", predicted.size(),
                out.c_str());
  }
  return 0;
}

void PrintDeltaReport(const delta::DeltaApplyReport& report) {
  if (report.no_op) {
    std::printf("delta: no records past watermark %llu — nothing published\n",
                static_cast<unsigned long long>(report.watermark_before));
    return;
  }
  std::printf("delta %s: watermark %llu -> %llu, %zu records "
              "(+%zu entities, +%zu/-%zu triples, %zu renames, %zu served)\n",
              report.rebuilt ? "rebuild" : "apply",
              static_cast<unsigned long long>(report.watermark_before),
              static_cast<unsigned long long>(report.watermark_after),
              report.stats.records_applied, report.stats.entities_added,
              report.stats.triples_added, report.stats.triples_removed,
              report.stats.entities_renamed, report.stats.serve_added);
  std::printf("delta timing: repair %.3fs, verify %.3fs, publish %.3fs"
              "  dirty rows/cols %zu/%zu\n",
              report.seconds_repair, report.seconds_verify,
              report.seconds_publish, report.stats.dirty_rows,
              report.stats.dirty_cols);
  if (report.published_index_generation != 0) {
    std::printf("delta: serving index now at generation %llu\n",
                static_cast<unsigned long long>(
                    report.published_index_generation));
  }
}

int CmdDelta(const FlagParser& flags) {
  // main() hands FlagParser argv+1, and Parse itself skips its argv[0]
  // ("delta"), so the action is the first positional.
  const std::vector<std::string>& pos = flags.positional();
  const std::string action = pos.empty() ? "" : pos[0];
  delta::DeltaApplyOptions options;
  options.journal_dir = flags.GetString("journal", "");
  options.state_dir = flags.GetString("state", "");
  options.index_dir = flags.GetString("index", "");
  options.export_ann = flags.GetBool("export_ann", true);
  if (!SizeFlag(flags, "delta", "audit_rows", 8, 0,
                &options.verify.audit_rows) ||
      !SizeFlag(flags, "delta", "ann_centroids", 0, 0,
                &options.ann_centroids) ||
      !SizeFlag(flags, "delta", "threads", 1, 1, &options.num_threads)) {
    return 2;
  }
  options.cancel = &g_cancel;
  std::signal(SIGINT, HandleSigint);
  if (options.journal_dir.empty()) {
    std::fprintf(stderr, "delta: --journal DIR is required\n");
    return 2;
  }

  if (action == "append") {
    const std::string patch_path = flags.GetString("patch", "");
    if (patch_path.empty()) {
      std::fprintf(stderr, "delta append: --patch FILE is required\n");
      return 2;
    }
    auto text_or = ReadFileToString(patch_path);
    if (!text_or.ok()) return Fail(text_or.status());
    auto records_or = delta::ParsePatchText(*text_or);
    if (!records_or.ok()) return Fail(records_or.status());
    auto journal_or = delta::DeltaJournal::Open(options.journal_dir);
    if (!journal_or.ok()) return Fail(journal_or.status());
    uint64_t first = 0, last = 0;
    for (const delta::PatchRecord& record : *records_or) {
      auto id_or = (*journal_or)->Append(record);
      if (!id_or.ok()) return Fail(id_or.status());
      if (first == 0) first = *id_or;
      last = *id_or;
    }
    std::printf("delta append: journaled %zu records (ids %llu..%llu) to "
                "%s\n",
                records_or->size(), static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(last),
                options.journal_dir.c_str());
    return 0;
  }
  if (action == "apply" || action == "rebuild") {
    if (options.state_dir.empty()) {
      std::fprintf(stderr, "delta %s: --state DIR is required\n",
                   action.c_str());
      return 2;
    }
    auto report_or = action == "apply" ? delta::ApplyDelta(options)
                                       : delta::RebuildDelta(options);
    if (!report_or.ok()) {
      const int rc = Fail(report_or.status());
      // A quarantined batch is a distinct, scriptable condition: the last
      // good generation still serves, and `delta rebuild` recovers.
      return delta::IsQuarantined(options.journal_dir) ? 4 : rc;
    }
    PrintDeltaReport(*report_or);
    return 0;
  }
  if (action == "status") {
    auto journal_or = delta::DeltaJournal::Open(options.journal_dir);
    if (!journal_or.ok()) return Fail(journal_or.status());
    std::printf("journal %s: last record id %llu, %zu segment(s)%s\n",
                options.journal_dir.c_str(),
                static_cast<unsigned long long>(
                    (*journal_or)->last_record_id()),
                (*journal_or)->SegmentSeqs().size(),
                delta::IsQuarantined(options.journal_dir)
                    ? ", QUARANTINED (run `ceaff delta rebuild`)"
                    : "");
    if (!options.state_dir.empty()) {
      auto store_or = delta::OpenDeltaStateStore(options.state_dir);
      if (!store_or.ok()) return Fail(store_or.status());
      auto state_or = delta::LoadDeltaState(store_or->get());
      if (!state_or.ok()) return Fail(state_or.status());
      auto pending_or = (*journal_or)->ReadAfter(state_or->watermark);
      if (!pending_or.ok()) return Fail(pending_or.status());
      std::printf("state %s: watermark %llu, %zu x %zu serving split, %zu "
                  "pending record(s)\n",
                  options.state_dir.c_str(),
                  static_cast<unsigned long long>(state_or->watermark),
                  state_or->source_ids.size(), state_or->target_ids.size(),
                  pending_or->size());
    }
    return 0;
  }
  std::fprintf(stderr,
               "delta: unknown action '%s' (append|apply|rebuild|status)\n",
               action.c_str());
  return 2;
}

int CmdEval(const FlagParser& flags) {
  std::string dir = flags.GetString("data", "");
  std::string pred = flags.GetString("pred", "");
  if (dir.empty() || pred.empty()) {
    std::fprintf(stderr, "eval: --data DIR and --pred FILE are required\n");
    return 2;
  }
  kg::KgPair pair;
  Status st = LoadDataset(flags, dir, &pair);
  if (!st.ok()) return Fail(st);
  std::vector<kg::AlignmentPair> predicted;
  st = kg::LoadAlignmentTsv(pred, pair.kg1, pair.kg2, &predicted);
  if (!st.ok()) return Fail(st);

  std::map<uint32_t, uint32_t> gold;
  for (const kg::AlignmentPair& p : pair.test_alignment) {
    gold[p.source] = p.target;
  }
  size_t correct = 0;
  for (const kg::AlignmentPair& p : predicted) {
    auto it = gold.find(p.source);
    if (it != gold.end() && it->second == p.target) ++correct;
  }
  std::printf("predictions: %zu, test links: %zu, correct: %zu, "
              "accuracy: %.4f\n",
              predicted.size(), gold.size(), correct,
              gold.empty() ? 0.0
                           : static_cast<double>(correct) /
                                 static_cast<double>(gold.size()));
  return 0;
}

/// The flags each subcommand accepts, checked before it acts: an unknown
/// flag or a malformed value is a usage error (exit 2) that writes
/// nothing.
std::vector<FlagParser::Spec> FlagSpecs(const std::string& cmd) {
  using T = FlagParser::Type;
  // Ingestion flags every subcommand takes.
  std::vector<FlagParser::Spec> specs = {{"lenient_io", T::kBool},
                                         {"io_error_budget", T::kInt},
                                         {"lenient_drop_threshold",
                                          T::kDouble}};
  std::vector<FlagParser::Spec> own;
  if (cmd == "generate") {
    own = {{"config", T::kString},
           {"scale", T::kDouble},
           {"out", T::kString},
           {"seed", T::kInt}};
  } else if (cmd == "stats") {
    own = {{"data", T::kString}};
  } else if (cmd == "align") {
    own = {{"data", T::kString},          {"out", T::kString},
           {"checkpoint_dir", T::kString}, {"resume", T::kBool},
           {"deadline_ms", T::kInt},       {"export_index", T::kString},
           {"export_dataset", T::kString}, {"export_ann", T::kBool},
           {"ann_centroids", T::kInt},     {"threads", T::kInt},
           {"no-structural", T::kBool},    {"no-semantic", T::kBool},
           {"no-string", T::kBool},        {"attributes", T::kBool},
           {"gcn-dim", T::kInt},           {"gcn-epochs", T::kInt},
           {"gcn-lr", T::kDouble},         {"theta1", T::kDouble},
           {"theta2", T::kDouble},         {"fusion", T::kString},
           {"decision", T::kString},       {"embed-dim", T::kInt},
           {"embeddings", T::kString},     {"export_delta_state", T::kString}};
  } else if (cmd == "eval") {
    own = {{"data", T::kString}, {"pred", T::kString}};
  } else if (cmd == "delta") {
    own = {{"journal", T::kString},  {"state", T::kString},
           {"index", T::kString},    {"patch", T::kString},
           {"audit_rows", T::kInt},  {"export_ann", T::kBool},
           {"ann_centroids", T::kInt}, {"threads", T::kInt}};
  }
  specs.insert(specs.end(), own.begin(), own.end());
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  auto flags_or = FlagParser::Parse(argc - 1, argv + 1);
  if (!flags_or.ok()) return Fail(flags_or.status());
  const FlagParser& flags = flags_or.value();
  std::string cmd = argv[1];
  const Status valid = flags.Validate(FlagSpecs(cmd));
  if (!valid.ok()) {
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(), valid.message().c_str());
    return Usage();
  }

  int rc;
  if (cmd == "generate") {
    rc = CmdGenerate(flags);
  } else if (cmd == "stats") {
    rc = CmdStats(flags);
  } else if (cmd == "align") {
    rc = CmdAlign(flags);
  } else if (cmd == "eval") {
    rc = CmdEval(flags);
  } else if (cmd == "delta") {
    rc = CmdDelta(flags);
  } else {
    return Usage();
  }
  return FinishWithIngestSummary(flags, rc);
}
