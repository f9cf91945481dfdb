(* The traced run's per-layer cost ledger, measured from outside the
   program.

   - In situ: a bench-owned trace sink stamps the program's [solve.*]
     Begin/End spans with the monotonic clock (their own [wall_ms] label is
     CPU time and is ignored) and attributes each to the bench span
     ([bench.activate], [bench.invoke], [bench.revoke]) it ran inside,
     aggregating in place, so memory stays bounded.
   - Replayed: after the measured phase, each other layer's public
     function is timed on the workload's own inputs (its issued RMCs and
     appointments, its decision-record shapes, a credential store of its
     size). A layer's estimated time is its count in the measured phase
     times its replayed cost — a warm-cache estimate, not an in-situ span. *)

module Obs = Oasis_obs.Obs
module Signed = Oasis_cert.Signed
module Rmc = Oasis_cert.Rmc
module Appointment = Oasis_cert.Appointment
module Cr = Oasis_cert.Credential_record
module Dlog = Oasis_trust.Decision_log
module Schnorr = Oasis_crypto.Schnorr
module Secret = Oasis_crypto.Secret
module Ident = Oasis_util.Ident
module Rng = Oasis_util.Rng

(* Log-bucketed durations: 32 buckets per power of two (~2 % wide) from
   1 ns, enough for a diagnostic median at fixed memory. *)
module Hist = struct
  let per_octave = 32.0

  type t = { counts : int array; mutable total : int; mutable sum_ns : float }

  let create () = { counts = Array.make (48 * 32) 0; total = 0; sum_ns = 0.0 }

  let add t ns =
    let i = if ns <= 1.0 then 0 else int_of_float (Float.log2 ns *. per_octave) in
    let i = min (Array.length t.counts - 1) i in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    t.sum_ns <- t.sum_ns +. ns

  (* The upper edge of the bucket holding the median, in µs. *)
  let median_us t =
    if t.total = 0 then nan
    else
      let want = (t.total + 1) / 2 in
      let rec go i seen =
        let seen = seen + t.counts.(i) in
        if seen >= want then Float.pow 2.0 (float_of_int (i + 1) /. per_octave) /. 1e3 else go (i + 1) seen
      in
      go 0 0
end

type sink_state = {
  mutable kind : string;
  mutable solve_start : int64;
  solve : (string, Hist.t) Hashtbl.t;  (** by bench kind *)
}

let bench_prefix = "bench."
let solve_prefix = "solve."

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let create_sink () = { kind = "other"; solve_start = 0L; solve = Hashtbl.create 4 }

let sink st (e : Obs.event) =
  match e.Obs.phase with
  | Obs.Begin when starts_with solve_prefix e.Obs.name -> st.solve_start <- Driver.now_ns ()
  | Obs.End when starts_with solve_prefix e.Obs.name ->
      let ns = Int64.to_float (Driver.ns_since st.solve_start) in
      let h =
        match Hashtbl.find_opt st.solve st.kind with
        | Some h -> h
        | None ->
            let h = Hist.create () in
            Hashtbl.replace st.solve st.kind h;
            h
      in
      Hist.add h ns
  | Obs.Begin when starts_with bench_prefix e.Obs.name ->
      st.kind <- String.sub e.Obs.name 6 (String.length e.Obs.name - 6)
  | Obs.End when starts_with bench_prefix e.Obs.name -> st.kind <- "other"
  | Obs.Begin | Obs.End | Obs.Instant -> ()

let solve_total_s st = Hashtbl.fold (fun _ h acc -> acc +. (h.Hist.sum_ns /. 1e9)) st.solve 0.0

let solve_median_us st kind =
  match Hashtbl.find_opt st.solve kind with Some h -> Hist.median_us h | None -> nan

(* Median per-call cost of [f] in µs over seven batches, each long enough
   (>= 2 ms) for the clock to resolve. *)
let replay_us f =
  let batch n =
    let t0 = Driver.now_ns () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    Int64.to_float (Driver.ns_since t0) /. 1e3 /. float_of_int n
  in
  let rec calibrate n =
    let t0 = Driver.now_ns () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    if Int64.to_float (Driver.ns_since t0) >= 2e6 || n >= 1 lsl 20 then n else calibrate (2 * n)
  in
  let n = calibrate 1 in
  Samples.median (List.init 7 (fun _ -> batch n))

type replay = {
  verify_rmc_us : float;
  verify_appt_us : float;
  verify_chain_us : float;
  verify_own_us : float;
  sign_rmc_us : float;
  hmac_verify_us : float;
  signing_bytes_us : float;
  bytes_per_cert : float;
  cred_add_us : float;
  cred_find_us : float;
  cred_revoke_us : float;
  dlog_append_us : float;
}

(* [rmc] was issued in the workload under [session_key]; [appt] is one of
   its appointments; [store_size] is its largest credential store;
   [record] a representative decision. Costs are at the reference machine
   speed, read from the calibration loop around the replays. *)
let replay ~authority ~rmc ~session_key ~appt ~store_size ~(record : Dlog.record) =
  let read () = List.init 3 (fun _ -> Calib.sample ()) in
  let before = read () in
  let address = Signed.address authority in
  let chain_of issuer =
    match Signed.chain_for authority issuer with
    | Some c -> c
    | None -> failwith "replay: issuer has no key chain"
  in
  let rmc_chain = chain_of rmc.Rmc.issuer and appt_chain = chain_of appt.Appointment.issuer in
  let now = appt.Appointment.issued_at in
  let signature =
    match Schnorr.of_digest rmc.Rmc.signature with Some s -> s | None -> failwith "replay: not a Schnorr RMC"
  in
  let issuer_pk = rmc_chain.Signed.cert.Signed.subject_pk in
  let keypair = Signed.generate_keypair authority in
  let rng = Rng.create 17 in
  let secret = Secret.generate rng in
  let legacy =
    Appointment.issue ~master_secret:secret ~epoch:0 ~id:appt.Appointment.id ~issuer:appt.Appointment.issuer
      ~kind:appt.Appointment.kind ~args:appt.Appointment.args ~holder:appt.Appointment.holder
      ~issued_at:appt.Appointment.issued_at ()
  in
  (* A store of the workload's size; fresh ids for adds, existing ones for
     finds, and enough spare valid records for the revokes. *)
  let gen = Ident.generator "replay" in
  let store = Cr.create_store () in
  let add () =
    Cr.add store ~cert_id:(Ident.fresh gen) ~issuer:rmc.Rmc.issuer ~kind:Cr.Kind_rmc
      ~principal:record.Dlog.principal ~name:rmc.Rmc.role ~args:rmc.Rmc.args ~issued_at:0.0
  in
  let existing = Array.init (max 1 store_size) (fun _ -> (add ()).Cr.cert_id) in
  let cursor = ref 0 in
  let next_existing () =
    cursor := (!cursor + 1) mod Array.length existing;
    existing.(!cursor)
  in
  let cred_find_us = replay_us (fun () -> Cr.find store (next_existing ())) in
  let cred_add_us = replay_us add in
  let cred_revoke_us =
    replay_us (fun () -> Cr.revoke store (add ()).Cr.cert_id ~at:1.0 ~reason:"replay") -. cred_add_us
  in
  let log = Dlog.create ~service:rmc.Rmc.issuer in
  let durable = Buffer.create 4096 in
  let dlog_append_us =
    replay_us (fun () ->
        let r =
          Dlog.append log ~at:record.Dlog.at ~decision:record.Dlog.decision ~principal:record.Dlog.principal
            ~action:record.Dlog.action ~args:record.Dlog.args ~rule:record.Dlog.rule ~creds:record.Dlog.creds
            ~env_facts:record.Dlog.env_facts ()
        in
        (* The service mirrors each record into durable storage as it logs it. *)
        if Buffer.length durable > 1 lsl 22 then Buffer.clear durable;
        Buffer.add_string durable (Dlog.export_line r))
  in
  let raw =
  {
    verify_rmc_us =
      replay_us (fun () -> Signed.verify_rmc ~address ~chain:rmc_chain ~principal_key:session_key rmc);
    verify_appt_us = replay_us (fun () -> Signed.verify_appointment ~address ~chain:appt_chain ~now appt);
    verify_chain_us = replay_us (fun () -> Signed.verify_chain ~address rmc_chain);
    verify_own_us =
      replay_us (fun () ->
          Schnorr.verify ~public:issuer_pk (Rmc.signing_bytes ~principal_key:session_key rmc) signature);
    sign_rmc_us =
      replay_us (fun () ->
          Signed.issue_rmc ~keypair ~rng ~principal_key:session_key ~id:rmc.Rmc.id ~issuer:rmc.Rmc.issuer
            ~role:rmc.Rmc.role ~args:rmc.Rmc.args ~issued_at:rmc.Rmc.issued_at);
    hmac_verify_us =
      replay_us (fun () -> Appointment.verify ~master_secret:secret ~current_epoch:0 ~now legacy);
    signing_bytes_us = replay_us (fun () -> Rmc.signing_bytes ~principal_key:session_key rmc);
    bytes_per_cert = float_of_int (Rmc.size_bytes rmc);
    cred_add_us;
    cred_find_us;
    cred_revoke_us;
    dlog_append_us;
  }
  in
  let f = Calib.factor (Samples.of_list (before @ read ())) in
  {
    raw with
    verify_rmc_us = f *. raw.verify_rmc_us;
    verify_appt_us = f *. raw.verify_appt_us;
    verify_chain_us = f *. raw.verify_chain_us;
    verify_own_us = f *. raw.verify_own_us;
    sign_rmc_us = f *. raw.sign_rmc_us;
    hmac_verify_us = f *. raw.hmac_verify_us;
    signing_bytes_us = f *. raw.signing_bytes_us;
    cred_add_us = f *. raw.cred_add_us;
    cred_find_us = f *. raw.cred_find_us;
    cred_revoke_us = f *. raw.cred_revoke_us;
    dlog_append_us = f *. raw.dlog_append_us;
  }
