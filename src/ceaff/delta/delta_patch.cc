#include "ceaff/delta/delta_patch.h"

#include "ceaff/common/bin_codec.h"
#include "ceaff/common/string_util.h"

namespace ceaff::delta {

namespace {

const char* OpName(PatchOp op) {
  switch (op) {
    case PatchOp::kAddEntity: return "add_entity";
    case PatchOp::kAddTriple: return "add_triple";
    case PatchOp::kRemoveTriple: return "remove_triple";
    case PatchOp::kRenameEntity: return "rename_entity";
    case PatchOp::kServeEntity: return "serve_entity";
  }
  return "?";
}

}  // namespace

std::string EncodePatchPayload(const PatchRecord& record) {
  BinWriter w;
  w.U64(record.id);
  w.U8(static_cast<uint8_t>(record.op));
  w.U8(record.kg);
  w.Str(record.uri);
  w.Str(record.name);
  w.Str(record.head);
  w.Str(record.rel);
  w.Str(record.tail);
  return w.Take();
}

StatusOr<PatchRecord> DecodePatchPayload(std::string_view payload) {
  PatchRecord record;
  BinReader r(payload);
  uint8_t op = 0;
  if (!r.U64(&record.id) || !r.U8(&op) || !r.U8(&record.kg)) {
    return Status::DataLoss("truncated patch payload");
  }
  if (op < static_cast<uint8_t>(PatchOp::kAddEntity) ||
      op > static_cast<uint8_t>(PatchOp::kServeEntity)) {
    return Status::DataLoss(StrFormat("unknown patch op %u", op));
  }
  record.op = static_cast<PatchOp>(op);
  if (record.kg != 1 && record.kg != 2) {
    return Status::DataLoss(StrFormat("patch kg %u is not 1 or 2",
                                      record.kg));
  }
  if (!r.Str(&record.uri) || !r.Str(&record.name) || !r.Str(&record.head) ||
      !r.Str(&record.rel) || !r.Str(&record.tail) || !r.Done()) {
    return Status::DataLoss("malformed patch payload strings");
  }
  return record;
}

StatusOr<std::vector<PatchRecord>> ParsePatchText(std::string_view text) {
  std::vector<PatchRecord> records;
  size_t lineno = 0;
  size_t pos = 0;
  auto bad = [&lineno](const std::string& why) {
    return Status::InvalidArgument(
        StrFormat("patch line %zu: %s", lineno, why.c_str()));
  };
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;

    const std::vector<std::string> f = Split(std::string(line), '\t');
    if (f.size() < 2) return bad("expected <op>\\t<kg>\\t...");
    PatchRecord r;
    if (f[1] == "1") {
      r.kg = 1;
    } else if (f[1] == "2") {
      r.kg = 2;
    } else {
      return bad("kg field must be 1 or 2, got '" + f[1] + "'");
    }
    if (f[0] == "add_entity") {
      if (f.size() != 3 && f.size() != 4) {
        return bad("add_entity takes <kg>\\t<uri>[\\t<name>]");
      }
      r.op = PatchOp::kAddEntity;
      r.uri = f[2];
      if (f.size() == 4) r.name = f[3];
    } else if (f[0] == "add_triple" || f[0] == "remove_triple") {
      if (f.size() != 5) {
        return bad(f[0] + " takes <kg>\\t<head>\\t<rel>\\t<tail>");
      }
      r.op = f[0] == "add_triple" ? PatchOp::kAddTriple
                                  : PatchOp::kRemoveTriple;
      r.head = f[2];
      r.rel = f[3];
      r.tail = f[4];
    } else if (f[0] == "rename_entity") {
      if (f.size() != 4) return bad("rename_entity takes <kg>\\t<uri>\\t<name>");
      r.op = PatchOp::kRenameEntity;
      r.uri = f[2];
      r.name = f[3];
    } else if (f[0] == "serve_entity") {
      if (f.size() != 3) return bad("serve_entity takes <kg>\\t<uri>");
      r.op = PatchOp::kServeEntity;
      r.uri = f[2];
    } else {
      return bad("unknown op '" + f[0] + "'");
    }
    if (r.op == PatchOp::kAddEntity || r.op == PatchOp::kRenameEntity ||
        r.op == PatchOp::kServeEntity) {
      if (r.uri.empty()) return bad("entity uri must be non-empty");
    } else if (r.head.empty() || r.rel.empty() || r.tail.empty()) {
      return bad("triple uris must be non-empty");
    }
    records.push_back(std::move(r));
  }
  return records;
}

std::string PatchToText(const PatchRecord& record) {
  std::string out = OpName(record.op);
  out += '\t';
  out += record.kg == 1 ? '1' : '2';
  switch (record.op) {
    case PatchOp::kAddEntity:
      out += '\t' + record.uri;
      if (!record.name.empty()) out += '\t' + record.name;
      break;
    case PatchOp::kAddTriple:
    case PatchOp::kRemoveTriple:
      out += '\t' + record.head + '\t' + record.rel + '\t' + record.tail;
      break;
    case PatchOp::kRenameEntity:
      out += '\t' + record.uri + '\t' + record.name;
      break;
    case PatchOp::kServeEntity:
      out += '\t' + record.uri;
      break;
  }
  return out;
}

}  // namespace ceaff::delta
