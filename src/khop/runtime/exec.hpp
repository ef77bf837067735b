/// \file exec.hpp
/// How a pipeline stage runs: the one execution parameter of every stage
/// that can fan out over a pool.
///
/// A pooled stage has a single declaration f(args, Exec exec = {}). Without
/// a pool it runs as one block on *exec.ws; with exec.pool it runs blocks
/// of its input on the pool, each worker on its own tls_workspace(), and
/// combines the blocks in order (exec_blocks in runtime/thread_pool.hpp).
/// The output is bit-identical either way, at any thread count, exceptions
/// included: the serial run IS the pooled run with one block. Stages with
/// no pool path take a plain Workspace& instead, so passing them a pool
/// does not compile.
#pragma once

namespace khop {

struct Workspace;
class ThreadPool;

/// Lazily-created workspace owned by the calling thread. Reused across calls
/// for the life of the thread; safe under ThreadPool workers because each
/// worker sees its own instance.
Workspace& tls_workspace();

/// Where a pooled stage keeps its scratch, and whether it uses a pool.
struct Exec {
  /// Scratch of the calling thread's share of the work (never null).
  Workspace* ws;
  /// Pool the stage's blocks run on, or null for one block on *ws.
  ThreadPool* pool;

  /// One block on the calling thread's workspace.
  Exec() : ws(&tls_workspace()), pool(nullptr) {}
  /// One block on \p w. Implicit, as is the pool form, so a call passes
  /// its workspace or its pool where the Exec goes.
  Exec(Workspace& w) : ws(&w), pool(nullptr) {}
  /// Blocks on \p p; the calling thread's part uses its own workspace.
  Exec(ThreadPool& p) : ws(&tls_workspace()), pool(&p) {}
};

}  // namespace khop
