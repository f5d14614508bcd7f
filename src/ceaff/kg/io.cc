#include "ceaff/kg/io.h"

#include <filesystem>
#include <functional>
#include <sstream>

#include "ceaff/common/durable_io.h"
#include "ceaff/common/string_util.h"

namespace ceaff::kg {

namespace {

/// TSV fields must not contain the separators; real DBpedia labels
/// occasionally do, so writers sanitise rather than corrupt the file.
std::string SanitizeTsvField(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

/// The TSV loaders' per-line parsing, run by the shared LinePump: skips
/// blank and `#` comment lines, splits the rest on tabs, enforces
/// `expected_fields`, and hands the fields to `consume`.
Status RunTsvLoader(
    const std::string& path, size_t expected_fields,
    const ParseOptions& options, ParseReport* report,
    const std::function<Status(const std::vector<std::string>&)>& consume) {
  LinePump pump(path, options, report);
  CEAFF_RETURN_IF_ERROR(pump.Open());
  std::string_view line;
  while (pump.Next(&line)) {
    line = StripAsciiWhitespace(line);
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = Split(line, '\t');
    CEAFF_RETURN_IF_ERROR(pump.Settle(
        fields.size() == expected_fields
            ? consume(fields)
            : Status::InvalidArgument(
                  StrFormat("expected %zu tab-separated fields, got %zu",
                            expected_fields, fields.size()))));
  }
  return Status::OK();
}

/// Serialises with `emit`, then publishes through the crash-durable write
/// protocol (failpoint scope "kg") — dataset exports survive a crash
/// mid-write with either the old file or the new one, never a torn TSV.
Status WriteTsvAtomic(const std::string& path,
                      const std::function<void(std::ostream&)>& emit) {
  std::ostringstream out;
  emit(out);
  if (!out) return Status::IOError("serialization failed: " + path);
  return WriteFileAtomic(path, std::move(out).str(), "kg");
}

}  // namespace

Status LoadTriplesTsv(const std::string& path, KnowledgeGraph* kg,
                      const ParseOptions& options, ParseReport* report) {
  return RunTsvLoader(path, 3, options, report,
                      [kg](const std::vector<std::string>& f) {
                        kg->AddTriple(f[0], f[1], f[2]);
                        return Status::OK();
                      });
}

Status LoadTriplesTsv(const std::string& path, KnowledgeGraph* kg) {
  return LoadTriplesTsv(path, kg, ParseOptions{}, nullptr);
}

Status SaveTriplesTsv(const KnowledgeGraph& kg, const std::string& path) {
  return WriteTsvAtomic(path, [&kg](std::ostream& out) {
    for (const Triple& t : kg.triples()) {
      out << kg.entity_uri(t.head) << '\t' << kg.relation_uri(t.relation)
          << '\t' << kg.entity_uri(t.tail) << '\n';
    }
  });
}

Status LoadAlignmentTsv(const std::string& path, const KnowledgeGraph& kg1,
                        const KnowledgeGraph& kg2,
                        std::vector<AlignmentPair>* pairs,
                        const ParseOptions& options, ParseReport* report) {
  return RunTsvLoader(
      path, 2, options, report,
      [&kg1, &kg2, pairs](const std::vector<std::string>& f) -> Status {
        auto u = kg1.FindEntity(f[0]);
        if (!u.ok()) return u.status();
        auto v = kg2.FindEntity(f[1]);
        if (!v.ok()) return v.status();
        pairs->push_back({u.value(), v.value()});
        return Status::OK();
      });
}

Status LoadAlignmentTsv(const std::string& path, const KnowledgeGraph& kg1,
                        const KnowledgeGraph& kg2,
                        std::vector<AlignmentPair>* pairs) {
  return LoadAlignmentTsv(path, kg1, kg2, pairs, ParseOptions{}, nullptr);
}

Status SaveAlignmentTsv(const std::vector<AlignmentPair>& pairs,
                        const KnowledgeGraph& kg1, const KnowledgeGraph& kg2,
                        const std::string& path) {
  return WriteTsvAtomic(path, [&pairs, &kg1, &kg2](std::ostream& out) {
    for (const AlignmentPair& p : pairs) {
      out << kg1.entity_uri(p.source) << '\t' << kg2.entity_uri(p.target)
          << '\n';
    }
  });
}

Status LoadAttributeTriplesTsv(const std::string& path, KnowledgeGraph* kg,
                               const ParseOptions& options,
                               ParseReport* report) {
  return RunTsvLoader(
      path, 3, options, report,
      [kg](const std::vector<std::string>& f) -> Status {
        auto e = kg->FindEntity(f[0]);
        if (!e.ok()) return e.status();
        AttributeId a = kg->AddAttribute(f[1]);
        return kg->AddAttributeTriple(e.value(), a, f[2]);
      });
}

Status LoadAttributeTriplesTsv(const std::string& path, KnowledgeGraph* kg) {
  return LoadAttributeTriplesTsv(path, kg, ParseOptions{}, nullptr);
}

Status SaveAttributeTriplesTsv(const KnowledgeGraph& kg,
                               const std::string& path) {
  return WriteTsvAtomic(path, [&kg](std::ostream& out) {
    for (const AttributeTriple& t : kg.attribute_triples()) {
      out << SanitizeTsvField(kg.entity_uri(t.entity)) << '\t'
          << SanitizeTsvField(kg.attribute_uri(t.attribute)) << '\t'
          << SanitizeTsvField(t.value) << '\n';
    }
  });
}

Status LoadEntitiesTsv(const std::string& path, KnowledgeGraph* kg,
                       const ParseOptions& options, ParseReport* report) {
  return RunTsvLoader(path, 2, options, report,
                      [kg](const std::vector<std::string>& f) {
                        kg->AddEntity(f[0], f[1]);
                        return Status::OK();
                      });
}

Status LoadEntitiesTsv(const std::string& path, KnowledgeGraph* kg) {
  return LoadEntitiesTsv(path, kg, ParseOptions{}, nullptr);
}

Status SaveEntitiesTsv(const KnowledgeGraph& kg, const std::string& path) {
  return WriteTsvAtomic(path, [&kg](std::ostream& out) {
    for (EntityId id = 0; id < kg.num_entities(); ++id) {
      out << SanitizeTsvField(kg.entity_uri(id)) << '\t'
          << SanitizeTsvField(kg.entity_name(id)) << '\n';
    }
  });
}

Status SaveKgPair(const KgPair& pair, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("mkdir " + dir + ": " + ec.message());
  CEAFF_RETURN_IF_ERROR(SaveEntitiesTsv(pair.kg1, dir + "/entities1.tsv"));
  CEAFF_RETURN_IF_ERROR(SaveEntitiesTsv(pair.kg2, dir + "/entities2.tsv"));
  CEAFF_RETURN_IF_ERROR(SaveTriplesTsv(pair.kg1, dir + "/triples1.tsv"));
  CEAFF_RETURN_IF_ERROR(SaveTriplesTsv(pair.kg2, dir + "/triples2.tsv"));
  CEAFF_RETURN_IF_ERROR(
      SaveAttributeTriplesTsv(pair.kg1, dir + "/attr_triples1.tsv"));
  CEAFF_RETURN_IF_ERROR(
      SaveAttributeTriplesTsv(pair.kg2, dir + "/attr_triples2.tsv"));
  CEAFF_RETURN_IF_ERROR(SaveAlignmentTsv(pair.seed_alignment, pair.kg1,
                                         pair.kg2, dir + "/seed_links.tsv"));
  CEAFF_RETURN_IF_ERROR(SaveAlignmentTsv(pair.test_alignment, pair.kg1,
                                         pair.kg2, dir + "/test_links.tsv"));
  return Status::OK();
}

Status LoadKgPair(const std::string& dir, KgPair* pair,
                  const ParseOptions& options,
                  std::vector<ParseReport>* reports) {
  auto next_report = [reports]() -> ParseReport* {
    if (reports == nullptr) return nullptr;
    reports->emplace_back();
    return &reports->back();
  };
  CEAFF_RETURN_IF_ERROR(LoadEntitiesTsv(dir + "/entities1.tsv", &pair->kg1,
                                        options, next_report()));
  CEAFF_RETURN_IF_ERROR(LoadEntitiesTsv(dir + "/entities2.tsv", &pair->kg2,
                                        options, next_report()));
  // A dataset with an empty entity vocabulary is damaged (zero-byte or
  // fully-skipped entities file); loading it "successfully" would only
  // defer the failure to some later NotFound with no hint of the cause.
  if (pair->kg1.num_entities() == 0) {
    return Status::DataLoss(dir + "/entities1.tsv: no entities loaded — "
                            "empty or fully malformed entity vocabulary");
  }
  if (pair->kg2.num_entities() == 0) {
    return Status::DataLoss(dir + "/entities2.tsv: no entities loaded — "
                            "empty or fully malformed entity vocabulary");
  }
  CEAFF_RETURN_IF_ERROR(LoadTriplesTsv(dir + "/triples1.tsv", &pair->kg1,
                                       options, next_report()));
  CEAFF_RETURN_IF_ERROR(LoadTriplesTsv(dir + "/triples2.tsv", &pair->kg2,
                                       options, next_report()));
  // Attribute files are optional (older datasets lack them).
  if (std::filesystem::exists(dir + "/attr_triples1.tsv")) {
    CEAFF_RETURN_IF_ERROR(LoadAttributeTriplesTsv(
        dir + "/attr_triples1.tsv", &pair->kg1, options, next_report()));
  }
  if (std::filesystem::exists(dir + "/attr_triples2.tsv")) {
    CEAFF_RETURN_IF_ERROR(LoadAttributeTriplesTsv(
        dir + "/attr_triples2.tsv", &pair->kg2, options, next_report()));
  }
  CEAFF_RETURN_IF_ERROR(LoadAlignmentTsv(dir + "/seed_links.tsv", pair->kg1,
                                         pair->kg2, &pair->seed_alignment,
                                         options, next_report()));
  CEAFF_RETURN_IF_ERROR(LoadAlignmentTsv(dir + "/test_links.tsv", pair->kg1,
                                         pair->kg2, &pair->test_alignment,
                                         options, next_report()));
  return Status::OK();
}

Status LoadKgPair(const std::string& dir, KgPair* pair) {
  return LoadKgPair(dir, pair, ParseOptions{}, nullptr);
}

}  // namespace ceaff::kg
