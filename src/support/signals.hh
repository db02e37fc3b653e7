/**
 * @file
 * Process termination signals (SIGINT/SIGTERM) as cooperative state.
 *
 * install() registers async-signal-safe handlers that record the
 * signal, cancel the process-wide CancelToken and write one byte to a
 * self-pipe. Polling code has two integration points:
 *
 *   - token(): a CancelToken wired into CompileOptions::cancel so an
 *     in-flight compile stops at the next phase boundary (LN3011);
 *   - wakeFd(): the self-pipe read end, added to poll() sets so
 *     blocking accept/read loops (the compile server) wake immediately
 *     instead of waiting for their timeout.
 *
 * The CLI uses this for graceful Ctrl-C: cancel outstanding batch units,
 * remove in-progress cache temp files, exit with the deterministic
 * interrupt code (docs/failure-model.md). The compile server uses the
 * same facility for graceful drain (docs/compile-server.md).
 *
 * State is process-global by nature (there is one signal disposition
 * per process); reset() rearms it for tests.
 */

#ifndef LONGNAIL_SUPPORT_SIGNALS_HH
#define LONGNAIL_SUPPORT_SIGNALS_HH

#include "support/cancel.hh"

namespace longnail {
namespace signals {

/** Install SIGINT/SIGTERM handlers (idempotent). */
void install();

/** True once a termination signal was delivered. */
bool terminationRequested();

/** The last termination signal delivered (0 if none). */
int lastSignal();

/** Process-wide cancellation token; cancelled by the handler. */
CancelToken &token();

/**
 * Read end of the self-pipe: becomes readable when a termination
 * signal arrives (level-triggered until drainWake()). -1 before
 * install().
 */
int wakeFd();

/** Consume pending wake bytes (after handling a drain request). */
void drainWake();

/** Clear recorded state and re-arm (tests only; handlers stay
 * installed). */
void reset();

} // namespace signals
} // namespace longnail

#endif // LONGNAIL_SUPPORT_SIGNALS_HH
