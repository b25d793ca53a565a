#include "flags.h"

#include <cstdio>

#include "common/string_util.h"

namespace nwc {
namespace {

// In the order of kOptionFlags' choices.
NwcOptions (*const kSchemePresets[])() = {NwcOptions::Plain, NwcOptions::Srr,  NwcOptions::Dip,
                                          NwcOptions::Dep,   NwcOptions::Iwp,  NwcOptions::Plus,
                                          NwcOptions::Star};
constexpr DistanceMeasure kMeasures[] = {DistanceMeasure::kMin, DistanceMeasure::kMax,
                                         DistanceMeasure::kAvg, DistanceMeasure::kNearestWindow};

std::optional<Point> ParseXY(std::string_view text) {
  const size_t comma = text.find(',');
  if (comma == std::string_view::npos) return std::nullopt;
  const std::optional<double> x = ParseFinite(text.substr(0, comma));
  const std::optional<double> y = ParseFinite(text.substr(comma + 1));
  if (!x || !y) return std::nullopt;
  return Point{*x, *y};
}

std::optional<size_t> FindChoice(const Flag& flag, std::string_view text) {
  std::string_view rest = flag.choices;
  for (size_t index = 0;; ++index) {
    const size_t bar = rest.find('|');
    if (rest.substr(0, bar) == text) return index;
    if (bar == std::string_view::npos) return std::nullopt;
    rest.remove_prefix(bar + 1);
  }
}

const Flag* FindFlag(std::span<const Flag> table, std::string_view name) {
  for (const Flag& flag : table) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

// What a value of `flag` must be, or "" when `text` is one.
std::string Mismatch(const Flag& flag, std::string_view text) {
  switch (flag.type) {
    case FlagType::kCount: {
      const std::optional<uint64_t> value = ParseNumber<uint64_t>(text);
      if (value && *value <= flag.max) return "";
      return StrFormat("an integer in [0, %llu]", static_cast<unsigned long long>(flag.max));
    }
    case FlagType::kDouble:
      return ParseFinite(text) ? "" : "a finite number";
    case FlagType::kPoint:
      return ParseXY(text) ? "" : "X,Y with finite numbers X and Y";
    case FlagType::kEnum:
      return FindChoice(flag, text) ? "" : std::string("one of ") + flag.choices;
    case FlagType::kText:
    case FlagType::kBool:
      break;
  }
  return "";
}

// "usage: <command> ..." followed by one line per flag.
std::string FlagUsage(std::string_view command, std::span<const Flag> table) {
  constexpr const char* kMetavars[] = {"=N", "=NUM", "=X,Y", "=", "=TEXT", ""};  // by FlagType
  std::string usage = StrFormat("usage: %.*s [--flag=value ...]\n",
                                static_cast<int>(command.size()), command.data());
  for (const Flag& flag : table) {
    const std::string spelled = StrFormat("--%s%s%s", flag.name,
                                          kMetavars[static_cast<int>(flag.type)], flag.choices);
    const std::string note = flag.required             ? " (required)"
                             : flag.fallback != nullptr ? StrFormat(" (default %s)", flag.fallback)
                                                        : "";
    usage += StrFormat("  %-32s %s%s\n", spelled.c_str(), flag.help, note.c_str());
  }
  return usage;
}

}  // namespace

std::vector<Flag> JoinFlags(std::initializer_list<std::span<const Flag>> groups) {
  std::vector<Flag> table;
  for (std::span<const Flag> group : groups) table.insert(table.end(), group.begin(), group.end());
  return table;
}

std::optional<Flags> Flags::Parse(std::string_view command, std::span<const Flag> table,
                                  int argc, char** argv, int first) {
  Flags flags;
  const Status status = flags.Read(table, argc, argv, first);
  if (status.ok()) return flags;
  Fail(status.ToString());
  std::fprintf(stderr, "%s", FlagUsage(command, table).c_str());
  return std::nullopt;
}

Status Flags::Read(std::span<const Flag> table, int argc, char** argv, int first) {
  table_.assign(table.begin(), table.end());
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() <= 2 || !arg.starts_with("--")) {
      return Status::InvalidArgument(
          StrFormat("bare argument '%s'; flags are --key[=value]", argv[i]));
    }
    const size_t eq = arg.find('=');
    const std::string name(arg.substr(2, eq == std::string_view::npos ? eq : eq - 2));
    const Flag* flag = FindFlag(table, name);
    if (flag == nullptr) {
      return Status::InvalidArgument(StrFormat("--%s is not a flag of this command", name.c_str()));
    }
    given_.insert(name);
    if (flag->type == FlagType::kBool) {
      if (eq == std::string_view::npos) continue;
      return Status::InvalidArgument(
          StrFormat("--%s takes no value, got '%s'", flag->name, argv[i]));
    }
    const std::string value(eq == std::string_view::npos ? "" : arg.substr(eq + 1));
    if (value.empty()) return Status::InvalidArgument(StrFormat("--%s needs a value", flag->name));
    const std::string expected = Mismatch(*flag, value);
    if (!expected.empty()) {
      return Status::InvalidArgument(
          StrFormat("--%s must be %s, got '%s'", flag->name, expected.c_str(), value.c_str()));
    }
    values_[name] = value;
  }
  for (const Flag& flag : table) {
    if (has(flag.name)) continue;
    if (flag.required) return Status::InvalidArgument(StrFormat("--%s is required", flag.name));
    if (flag.fallback != nullptr) values_[flag.name] = flag.fallback;
  }
  return Status::Ok();
}

const std::string& Flags::text(std::string_view name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) CheckOk(Status::Internal("--" + std::string(name) + " has no value"));
  return it->second;
}

// value() aborts on a flag read as another type than its table declares.
uint64_t Flags::count(std::string_view name) const {
  return ParseNumber<uint64_t>(text(name)).value();
}

double Flags::number(std::string_view name) const { return ParseFinite(text(name)).value(); }

Point Flags::point(std::string_view name) const { return ParseXY(text(name)).value(); }

size_t Flags::choice(std::string_view name) const {
  return FindChoice(*FindFlag(table_, name), text(name)).value();
}

int RunSubcommand(const std::string& program, std::span<const Subcommand> subcommands, int argc,
                  char** argv) {
  const std::string_view name = argc >= 2 ? argv[1] : "";
  for (const Subcommand& subcommand : subcommands) {
    if (name != subcommand.name) continue;
    const std::optional<Flags> flags =
        Flags::Parse(program + " " + subcommand.name, subcommand.flags, argc, argv, 2);
    return flags ? subcommand.run(*flags) : 1;
  }
  std::fprintf(stderr, "usage: %s <subcommand> [--flag=value ...]; subcommands and flags:\n",
               program.c_str());
  for (const Subcommand& subcommand : subcommands) {
    const std::string usage = FlagUsage(program + " " + subcommand.name, subcommand.flags);
    std::fprintf(stderr, "\n%s", usage.c_str());
  }
  return 2;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

NwcOptions OptionsFromFlags(const Flags& flags) {
  NwcOptions options = kSchemePresets[flags.choice("scheme")]();
  options.measure = kMeasures[flags.choice("measure")];
  return options;
}

}  // namespace nwc
