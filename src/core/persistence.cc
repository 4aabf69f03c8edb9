#include "core/persistence.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <set>

#include "storage/binary_table.h"
#include "storage/csv.h"
#include "core/file_io.h"
#include "util/strings.h"

namespace mpfdb {
namespace {

namespace fs = std::filesystem;

constexpr char kManifestName[] = "manifest";
constexpr char kManifestTemp[] = "manifest.tmp";
constexpr char kChecksumPrefix[] = "checksum|";

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Exactly 16 lower-case hex digits, as Hex prints them.
bool ParseHex(std::string_view text, uint64_t* out) {
  if (text.size() != 16) return false;
  uint64_t v = 0;
  for (char c : text) {
    int digit = c >= '0' && c <= '9'   ? c - '0'
                : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                       : -1;
    if (digit < 0) return false;
    v = v << 4 | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

// A positive decimal of at most 18 digits, with no sign, spaces or
// trailing bytes.
bool ParsePositive(std::string_view text, int64_t* out) {
  if (text.empty() || text.size() > 18) return false;
  int64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  *out = v;
  return v > 0;
}

// A name that resolves to a file directly inside the database directory.
bool IsPlainFileName(std::string_view name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find('/') == std::string_view::npos &&
         name.find('\0') == std::string_view::npos;
}

// Fails for a name that would not read back from the manifest as the same
// field or list element: one holding a field, list or line separator.
Status CheckStorable(const std::string& name) {
  if (name.find_first_of("|,\n") == std::string::npos) return Status::Ok();
  return Status::InvalidArgument("name '" + name +
                                 "' cannot be stored in the manifest");
}

bool IsBinaryFile(std::string_view file) {
  return file.size() > 5 && file.substr(file.size() - 5) == ".mpft";
}

// The generation of a file named `<table>.g<N>.csv` or `<table>.g<N>.mpft`,
// or 0 for any other name.
uint64_t GenerationOf(std::string_view file) {
  size_t dot = file.rfind('.');
  if (dot == std::string_view::npos) return 0;
  std::string_view ext = file.substr(dot);
  if (ext != ".csv" && ext != ".mpft") return 0;
  std::string_view stem = file.substr(0, dot);
  size_t g = stem.rfind(".g");
  int64_t generation = 0;
  if (g == std::string_view::npos ||
      !ParsePositive(stem.substr(g + 2), &generation)) {
    return 0;
  }
  return static_cast<uint64_t>(generation);
}

}  // namespace

std::string FormatManifest(const Manifest& manifest) {
  std::string out;
  for (const auto& [name, domain] : manifest.variables) {
    out += "variable|" + name + "|" + std::to_string(domain) + "\n";
  }
  for (const auto& t : manifest.tables) {
    out += "table|" + t.name + "|" + t.file + "|" + t.measure + "|" +
           Join(t.key_vars, ",") + "|" + Hex(t.checksum) + "\n";
  }
  for (const auto& view : manifest.views) {
    out += "view|" + view.name + "|" + view.semiring.name() + "|" +
           Join(view.relations, ",") + "\n";
  }
  return out + kChecksumPrefix + Hex(Checksum64(out)) + "\n";
}

StatusOr<Manifest> ParseManifest(std::string_view bytes) {
  // The checksum line is the last line and ends the file.
  size_t last = bytes.size() < 2 ? std::string_view::npos
                                 : bytes.rfind('\n', bytes.size() - 2);
  last = last == std::string_view::npos ? 0 : last + 1;
  std::string_view body = bytes.substr(0, last);
  std::string_view trailer = bytes.substr(last);
  uint64_t expected = 0;
  if (!trailer.starts_with(kChecksumPrefix) || !trailer.ends_with('\n') ||
      !ParseHex(trailer.substr(sizeof(kChecksumPrefix) - 1,
                               trailer.size() - sizeof(kChecksumPrefix)),
                &expected)) {
    return Status::InvalidArgument(
        "manifest does not end with a checksum line");
  }
  if (Checksum64(body) != expected) {
    return Status::InvalidArgument("manifest checksum mismatch");
  }

  Manifest manifest;
  size_t line_number = 0;
  while (!body.empty()) {  // every line of the body ends with '\n'
    size_t end = body.find('\n');
    std::string_view line = body.substr(0, end);
    body.remove_prefix(end + 1);
    ++line_number;
    auto bad = [&](const std::string& why) {
      return Status::InvalidArgument("manifest line " +
                                     std::to_string(line_number) + ": " + why);
    };
    std::vector<std::string> fields = Split(line, '|');
    const std::string& kind = fields[0];
    if (kind == "variable") {
      if (fields.size() != 3) return bad("variable needs 3 fields");
      int64_t domain = 0;
      if (!ParsePositive(fields[2], &domain)) return bad("bad domain size");
      manifest.variables.emplace_back(fields[1], domain);
    } else if (kind == "table") {
      if (fields.size() != 6) return bad("table needs 6 fields");
      Manifest::TableFile t;
      t.name = fields[1];
      t.file = fields[2];
      t.measure = fields[3];
      if (!fields[4].empty()) t.key_vars = Split(fields[4], ',');
      if (!IsPlainFileName(t.file)) {
        return bad("file name '" + t.file + "' is not a plain name inside "
                   "the database directory");
      }
      if (!ParseHex(fields[5], &t.checksum)) return bad("bad file checksum");
      manifest.tables.push_back(std::move(t));
    } else if (kind == "view") {
      if (fields.size() != 4) return bad("view needs 4 fields");
      MpfViewDef view;
      view.name = fields[1];
      auto semiring = Semiring::FromName(fields[2]);
      if (!semiring.ok()) return bad(semiring.status().message());
      view.semiring = *semiring;
      view.relations = Split(fields[3], ',');
      manifest.views.push_back(std::move(view));
    } else {
      return bad("unknown record kind '" + kind + "'");
    }
  }
  return manifest;
}

Status SaveDatabase(const Database& db, const std::string& directory,
                    bool binary) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Status::Internal("cannot create directory '" + directory +
                            "': " + ec.message());
  }
  const fs::path dir(directory);
  // A generation above every generation-named file already present, so no
  // file the current manifest names (nor a failed save's leftover) is
  // overwritten.
  uint64_t generation = 0;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    generation =
        std::max(generation, GenerationOf(it->path().filename().string()));
  }
  if (ec) {
    return Status::Internal("cannot list '" + directory + "': " + ec.message());
  }
  const std::string suffix =
      ".g" + std::to_string(generation + 1) + (binary ? ".mpft" : ".csv");

  const Catalog& catalog = db.catalog();
  // Every registered variable, used by a table or not: a variable created
  // for a table still to come must survive the round trip.
  Manifest manifest;
  for (const auto& [var, domain] : catalog.variables()) {
    MPFDB_RETURN_IF_ERROR(CheckStorable(var));
    manifest.variables.emplace_back(var, domain);
  }
  for (const auto& name : catalog.TableNames()) {
    TablePtr table = *catalog.GetTable(name);
    Manifest::TableFile file{name, name + suffix,
                             table->schema().measure_name(),
                             table->key_vars(), 0};
    MPFDB_RETURN_IF_ERROR(CheckStorable(name));
    MPFDB_RETURN_IF_ERROR(CheckStorable(file.measure));
    if (!IsPlainFileName(file.file)) {
      return Status::InvalidArgument("table name '" + name +
                                     "' cannot name a file");
    }
    std::string bytes =
        binary ? EncodeTableBinary(*table) : FormatTableCsv(*table);
    file.checksum = Checksum64(bytes);
    MPFDB_RETURN_IF_ERROR(WriteFileSynced((dir / file.file).string(), bytes));
    manifest.tables.push_back(std::move(file));
  }
  for (const auto& view_name : db.ViewNames()) {
    MPFDB_RETURN_IF_ERROR(CheckStorable(view_name));
    manifest.views.push_back(**db.GetView(view_name));
  }

  const std::string temp = (dir / kManifestTemp).string();
  MPFDB_RETURN_IF_ERROR(WriteFileSynced(temp, FormatManifest(manifest)));
  MPFDB_RETURN_IF_ERROR(SyncDirectory(directory));
  MPFDB_RETURN_IF_ERROR(RenameFile(temp, (dir / kManifestName).string()));
  MPFDB_RETURN_IF_ERROR(SyncDirectory(directory));

  // Committed. Drop the previous generation and any failed save's files;
  // a file left behind here is harmless, and the next save retries it.
  std::set<std::string> live;
  for (const auto& t : manifest.tables) live.insert(t.file);
  std::vector<fs::path> stale;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::string name = it->path().filename().string();
    if (GenerationOf(name) != 0 && live.count(name) == 0) {
      stale.push_back(it->path());
    }
  }
  for (const auto& path : stale) fs::remove(path, ec);
  return Status::Ok();
}

Status LoadDatabase(const std::string& directory, Database& db) {
  const fs::path dir(directory);
  auto bytes = ReadFileBytes((dir / kManifestName).string());
  if (!bytes.ok() && bytes.status().code() == StatusCode::kNotFound) {
    return Status::NotFound("no manifest in '" + directory + "'");
  }
  MPFDB_RETURN_IF_ERROR(bytes.status());
  MPFDB_ASSIGN_OR_RETURN(Manifest manifest, ParseManifest(*bytes));

  // Verify every table file before parsing any of them.
  std::vector<std::string> contents;
  for (const auto& t : manifest.tables) {
    const std::string path = (dir / t.file).string();
    auto content = ReadFileBytes(path);
    // Only a missing manifest means "no database"; a table file missing
    // under a valid manifest is a damaged one.
    if (!content.ok() && content.status().code() == StatusCode::kNotFound) {
      return Status::InvalidArgument("manifest names missing file '" + path +
                                     "'");
    }
    MPFDB_RETURN_IF_ERROR(content.status());
    if (Checksum64(*content) != t.checksum) {
      return Status::InvalidArgument("checksum mismatch in '" + path + "'");
    }
    contents.push_back(std::move(*content));
  }
  std::vector<TablePtr> tables;
  for (size_t i = 0; i < manifest.tables.size(); ++i) {
    const Manifest::TableFile& t = manifest.tables[i];
    const std::string path = (dir / t.file).string();
    auto table = IsBinaryFile(t.file)
                     ? DecodeTableBinary(t.name, contents[i])
                     : ParseTableCsv(t.name, contents[i], t.file);
    if (!table.ok()) return Annotate(table.status(), "'" + path + "'");
    if ((*table)->schema().measure_name() != t.measure) {
      return Status::InvalidArgument("measure name mismatch for table " +
                                     t.name);
    }
    if (!t.key_vars.empty()) {
      MPFDB_RETURN_IF_ERROR((*table)->SetKeyVars(t.key_vars));
    }
    tables.push_back(TablePtr(std::move(*table)));
  }

  for (const auto& [name, domain] : manifest.variables) {
    MPFDB_RETURN_IF_ERROR(db.catalog().RegisterVariable(name, domain));
  }
  for (TablePtr& table : tables) {
    MPFDB_RETURN_IF_ERROR(db.CreateTable(std::move(table)));
  }
  for (MpfViewDef& view : manifest.views) {
    MPFDB_RETURN_IF_ERROR(db.CreateMpfView(std::move(view)));
  }
  return Status::Ok();
}

}  // namespace mpfdb
