/**
 * @file
 * Deterministic fault-injection points for the compile pipeline.
 *
 * A failpoint is a named site in the code (one per phase boundary:
 * "parse", "sema", "astlower", "analysis", "lil", "sched",
 * "sched-optimal", "hwgen", "scaiev-config", "validate", plus
 * "passes", which injects a deliberate miscompile into the -O1
 * pipeline for the signature checker to catch) that is normally
 * inert. Tests or operators
 * arm it programmatically (arm()) or through the environment:
 *
 *   LONGNAIL_FAILPOINTS="sema=fail;sched=transient:2"
 *
 * Modes:
 *   off           the site is inert (same as not armed)
 *   fail          every evaluation fails
 *   transient:N   the first N evaluations fail, later ones pass
 *
 * Evaluation is fully deterministic: a site fails based only on its
 * spec and its per-site hit counter. A transient fault fails the
 * compile that hits it like any other fault; a resubmitted compile
 * passes once the site's N failures are used up
 * (docs/failure-model.md).
 *
 * The registry is process-global and guarded by a mutex. Concurrent
 * compiles share each site's hit counter, so which of them takes a
 * transient failure depends on their order (fault injection is a test
 * and operations facility, not a hot path).
 */

#ifndef LONGNAIL_SUPPORT_FAILPOINT_HH
#define LONGNAIL_SUPPORT_FAILPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace longnail {
namespace failpoint {

/** How an armed failpoint behaves when evaluated. */
enum class Mode { Off, Fail, Transient };

/** Arm @p name; Transient fails the first @p transient_count hits. */
void arm(const std::string &name, Mode mode,
         uint64_t transient_count = 1);

/** Disarm one site (its hit counter is kept). */
void disarm(const std::string &name);

/** Disarm everything and clear all counters. */
void reset();

/**
 * Parse and arm one "name=mode" spec ("sema=fail",
 * "sched=transient:2", "parse=off").
 * @return empty string on success, else a description of the problem.
 */
std::string armFromSpec(const std::string &spec);

/**
 * Arm every ';'-separated spec in the environment variable @p env_var
 * (default LONGNAIL_FAILPOINTS). Unset/empty is not an error.
 * @return empty string on success, else the first problem found.
 */
std::string armFromEnv(const char *env_var = "LONGNAIL_FAILPOINTS");

/**
 * Evaluate the site @p name: returns Off when the site is inert for
 * this hit, else the mode that made it fail. Increments the site's hit
 * counter.
 */
Mode fire(const char *name);

/** Times fire() was called for @p name (armed or not). */
uint64_t hitCount(const std::string &name);

/** Names of all currently armed sites. */
std::vector<std::string> armedNames();

/** RAII arming for tests: disarms the site on scope exit. */
class Scoped
{
  public:
    Scoped(std::string name, Mode mode, uint64_t transient_count = 1)
        : name_(std::move(name))
    {
        arm(name_, mode, transient_count);
    }
    ~Scoped() { disarm(name_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    std::string name_;
};

} // namespace failpoint
} // namespace longnail

#endif // LONGNAIL_SUPPORT_FAILPOINT_HH
