(** A reusable fixed-size pool of worker domains (OCaml 5 [Domain]s).

    The pool runs the per-unit frontend parse and the daemon's what-if
    batches: tasks are closures pushed onto a shared queue; [jobs] worker
    domains pop and run them. Tasks may themselves submit further tasks,
    and {!wait} blocks until the pool is fully drained.

    Exceptions are {e funneled}, not lost and not fatal: a task that
    raises records the first exception (with its backtrace) and the worker
    keeps serving; {!wait} re-raises it after the queue drains. Callers
    that want per-task fault isolation catch inside the task — the funnel
    is the backstop for scheduler bugs.

    With [jobs <= 1] no domain is spawned and {!submit} runs the task
    inline, immediately, in submission order — the exact serial path. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [max 1 jobs] workers ([jobs <= 1] spawns none
    and runs tasks inline). *)

val jobs : t -> int

val cores_available : unit -> int
(** [Domain.recommended_domain_count ()]: the parallelism the host can
    actually deliver — recorded by the benchmarks next to per-job-count
    timings so speedups are interpretable across machines *)

val default_jobs : unit -> int
(** the [TYPEQUAL_JOBS] environment variable if set to a positive
    integer, else [1] (parallelism is opt-in; serial stays the default) *)

val submit : t -> (unit -> unit) -> unit
(** queue a task; safe to call from inside a running task *)

val wait : t -> unit
(** block until every submitted task has finished, then re-raise the
    first funneled exception, if any *)

val shutdown : t -> unit
(** stop accepting work and join the worker domains; queued tasks are
    drained first *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, then {!shutdown} (also on exception) *)
