// One declarative flag table for the command-line tools (nwc_tool,
// nwc_load). Every subcommand lists its flags once; Flags::Parse checks
// the whole command line against that list before the command does any
// work, and the usage text is generated from the same list.

#ifndef NWC_TOOLS_FLAGS_H_
#define NWC_TOOLS_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/nwc_types.h"
#include "geometry/point.h"

namespace nwc {

enum class FlagType {
  kCount,   ///< unsigned integer in [0, Flag::max]; seeds use the full 64 bits
  kDouble,  ///< finite floating-point number
  kPoint,   ///< X,Y with finite X and Y
  kEnum,    ///< one of the '|'-separated Flag::choices
  kText,    ///< any non-empty text (paths, hosts, fault specs)
  kBool,    ///< presence only: --name, never --name=value
};

/// One --name=value flag. `fallback` is the default in command-line form;
/// without one, the command asks Flags::has() before reading the value.
struct Flag {
  const char* name;
  FlagType type;
  const char* fallback = nullptr;
  const char* help = "";
  bool required = false;
  uint64_t max = std::numeric_limits<uint64_t>::max();
  const char* choices = "";
};

/// `groups` laid end to end: a subcommand's table built from shared groups.
std::vector<Flag> JoinFlags(std::initializer_list<std::span<const Flag>> groups);

/// A command line that passed its table. Every value was checked when
/// parsed, so the accessors cannot fail; reading a flag the table does not
/// declare, a switch, a value of another type, or an absent flag without
/// a default is a programming error and aborts.
class Flags {
 public:
  /// Parses argv[first, argc) against `table`. Rejects, printing the error
  /// and the usage text to stderr: an argument not of the form
  /// --key[=value], an unknown flag, a value that does not parse completely
  /// or lies outside its type's range, and a missing required flag.
  static std::optional<Flags> Parse(std::string_view command, std::span<const Flag> table,
                                    int argc, char** argv, int first);

  /// True when --name was given on the command line.
  bool has(std::string_view name) const { return given_.count(name) > 0; }

  /// The value as given (or the default) of any non-bool flag.
  const std::string& text(std::string_view name) const;
  uint64_t count(std::string_view name) const;
  double number(std::string_view name) const;
  Point point(std::string_view name) const;
  size_t choice(std::string_view name) const;  ///< index into Flag::choices

 private:
  Status Read(std::span<const Flag> table, int argc, char** argv, int first);

  std::vector<Flag> table_;
  std::map<std::string, std::string, std::less<>> values_;  ///< given or defaulted
  std::set<std::string, std::less<>> given_;
};

/// One subcommand of a multi-command tool: its flag table and entry point.
struct Subcommand {
  const char* name;
  std::vector<Flag> flags;
  int (*run)(const Flags& flags);
};

/// Runs the subcommand argv[1] names on the flags after it (exit code 1
/// when they do not parse). Without a known subcommand, prints every
/// subcommand's usage and returns 2.
int RunSubcommand(const std::string& program, std::span<const Subcommand> subcommands, int argc,
                  char** argv);

/// Prints "error: <message>" to stderr; returns the exit code 1.
int Fail(const std::string& message);

/// --scheme (a Table 3 preset) and --measure, shared by both tools.
inline constexpr Flag kOptionFlags[] = {
    {.name = "scheme", .type = FlagType::kEnum, .fallback = "star", .help = "pruning preset",
     .choices = "plain|srr|dip|dep|iwp|plus|star"},
    {.name = "measure", .type = FlagType::kEnum, .fallback = "nearest",
     .help = "group distance measure", .choices = "min|max|avg|nearest"},
};

/// The preset named by --scheme with the measure named by --measure.
NwcOptions OptionsFromFlags(const Flags& flags);

}  // namespace nwc

#endif  // NWC_TOOLS_FLAGS_H_
