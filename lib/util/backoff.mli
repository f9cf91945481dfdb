(** Capped exponential backoff with deterministic jitter.

    Every RPC call site that retries after a lost message shares this one
    policy type, so retry behaviour is configured — and observable — in a
    single place instead of as scattered ad-hoc loop counts. Delays are
    jittered from an explicit {!Rng.t}, keeping retry schedules replayable
    from a seed like everything else in the simulator. *)

type policy = {
  base : float;  (** delay before the first retry, seconds of virtual time *)
  factor : float;  (** multiplier applied per attempt (>= 1.0) *)
  cap : float;  (** upper bound on any single delay *)
  max_attempts : int;  (** total tries including the first (>= 1) *)
  jitter : float;  (** fraction of the delay randomized away, in [0, 1] *)
}

val default : policy
(** 4 attempts, 50 ms base doubling to a 1 s cap, 25% jitter — tuned so a
    full retry cycle stays well inside a heartbeat deadline. *)

val fixed : int -> policy
(** [fixed n] reproduces the legacy fixed-count retry: [n] attempts with no
    delay between them ([n] is clamped to at least 1). *)

val delay : policy -> Rng.t -> attempt:int -> float
(** [delay p rng ~attempt] is the pause before retry number [attempt]
    (1-based: [attempt = 1] follows the first failure). Deterministic given
    the generator state: [base *. factor^(attempt-1)] capped at [cap], minus
    a uniform jitter share. Never negative. *)

val retry :
  policy ->
  Rng.t ->
  sleep:(float -> unit) ->
  ?on_retry:(attempt:int -> delay:float -> unit) ->
  (unit -> ('a, 'err) result) ->
  ('a, 'err) result
(** [retry p rng ~sleep f] runs [f] up to [p.max_attempts] times, invoking
    [sleep] with the jittered delay between tries. The sleep function is
    supplied by the caller ([Proc.sleep] inside simulated processes) so this
    module stays free of simulator dependencies. [on_retry] fires before
    each sleep — call sites use it to count [rpc.retries{site=..}]. The
    first [Ok] wins; the last [Error] is returned after exhaustion. *)
