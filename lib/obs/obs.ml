type label = string * string

module Counter = struct
  type t = { mutable n : int }

  let inc t = t.n <- t.n + 1
  let add t k = t.n <- t.n + k
  let value t = t.n
end

module Gauge = struct
  type t = { mutable v : float }

  let set t v = t.v <- v
  let add t d = t.v <- t.v +. d
  let value t = t.v
end

module Histogram = struct
  type t = {
    mutable count : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
  }

  let observe t v =
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v < t.min then t.min <- v;
    if v > t.max then t.max <- v

  let count t = t.count
  let sum t = t.sum
  let mean t = if t.count = 0 then nan else t.sum /. float_of_int t.count
  let min t = t.min
  let max t = t.max
end

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

type phase = Begin | End | Instant

type event = {
  seq : int;
  at : float;
  name : string;
  phase : phase;
  span : int;
  labels : label list;
}

type sink = event -> unit

type t = {
  now : unit -> float;
  metrics : (string, string * label list * metric) Hashtbl.t;
      (* rendered key -> (name, labels, metric) *)
  mutable sinks : sink list;  (* attach order *)
  mutable tracing : bool;
  mutable seq : int;
  mutable next_span : int;
}

let create ?(now = fun () -> 0.0) () =
  { now; metrics = Hashtbl.create 64; sinks = []; tracing = false; seq = 0; next_span = 0 }


let tracing t = t.tracing

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let render_key name labels =
  match labels with
  | [] -> name
  | labels ->
      let sorted = List.sort (fun (a, _) (b, _) -> compare a b) labels in
      name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) sorted) ^ "}"

let find_or_create t name labels make =
  let key = render_key name labels in
  match Hashtbl.find_opt t.metrics key with
  | Some (_, _, metric) -> metric
  | None ->
      let metric = make () in
      Hashtbl.replace t.metrics key (name, labels, metric);
      metric

let kind_error key = invalid_arg (Printf.sprintf "Obs: %s registered as a different metric kind" key)

let counter t ?(labels = []) name =
  match find_or_create t name labels (fun () -> M_counter { Counter.n = 0 }) with
  | M_counter c -> c
  | _ -> kind_error (render_key name labels)

let gauge t ?(labels = []) name =
  match find_or_create t name labels (fun () -> M_gauge { Gauge.v = 0.0 }) with
  | M_gauge g -> g
  | _ -> kind_error (render_key name labels)

let histogram t ?(labels = []) name =
  match
    find_or_create t name labels (fun () ->
        M_histogram { Histogram.count = 0; sum = 0.0; min = infinity; max = neg_infinity })
  with
  | M_histogram h -> h
  | _ -> kind_error (render_key name labels)

let metric_values t =
  Hashtbl.fold
    (fun key (name, labels, metric) acc ->
      match metric with
      | M_counter c -> (key, float_of_int (Counter.value c)) :: acc
      | M_gauge g -> (key, Gauge.value g) :: acc
      | M_histogram h ->
          let derived suffix v = (render_key (name ^ suffix) labels, v) in
          derived ".count" (float_of_int (Histogram.count h))
          :: derived ".sum" (Histogram.sum h)
          :: derived ".mean" (Histogram.mean h)
          :: derived ".max" (Histogram.max h)
          :: acc)
    t.metrics []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let value t key = List.assoc_opt key (metric_values t)

(* ------------------------------------------------------------------ *)
(* Tracing                                                            *)
(* ------------------------------------------------------------------ *)

let attach t sink =
  t.sinks <- t.sinks @ [ sink ];
  t.tracing <- true

let detach_all t =
  t.sinks <- [];
  t.tracing <- false

let emit t ~phase ~span ~labels name =
  t.seq <- t.seq + 1;
  let e = { seq = t.seq; at = t.now (); name; phase; span; labels } in
  List.iter (fun sink -> sink e) t.sinks

let event t ?(labels = []) name = if t.tracing then emit t ~phase:Instant ~span:0 ~labels name

let last_seq t = t.seq

let span t ?(labels = []) name f =
  if not t.tracing then f ()
  else begin
    t.next_span <- t.next_span + 1;
    let id = t.next_span in
    emit t ~phase:Begin ~span:id ~labels name;
    let t0 = Monotonic_clock.now () in
    let finish extra =
      let wall_ms = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6 in
      emit t ~phase:End ~span:id
        ~labels:(labels @ (("wall_ms", Printf.sprintf "%.3f" wall_ms) :: extra))
        name
    in
    match f () with
    | v ->
        finish [];
        v
    | exception exn ->
        finish [ ("error", Printexc.to_string exn) ];
        raise exn
  end

let memory_sink () =
  let events = ref [] in
  ((fun e -> events := e :: !events), fun () -> List.rev !events)

(* ------------------------------------------------------------------ *)
(* JSONL export                                                       *)
(* ------------------------------------------------------------------ *)

let phase_to_string = function Begin -> "B" | End -> "E" | Instant -> "I"

let escape_json s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let event_to_jsonl e =
  let labels =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (escape_json k) (escape_json v)) e.labels)
  in
  Printf.sprintf "{\"seq\":%d,\"ts\":%.9g,\"ph\":\"%s\",\"span\":%d,\"name\":\"%s\",\"labels\":{%s}}"
    e.seq e.at (phase_to_string e.phase) e.span (escape_json e.name) labels

(* A minimal JSON parser covering exactly the subset the exporter writes:
   objects, strings, numbers. Enough for round-tripping and for the schema
   check — no external json dependency. *)

type json = J_num of float | J_str of string | J_obj of (string * json) list

exception Bad of string

let parse_json line =
  let n = String.length line in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail "expected '%c' at %d, found '%c'" c !pos d
    | None -> fail "expected '%c' at %d, found end of line" c !pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = line.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          if !pos >= n then fail "dangling escape";
          let e = line.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub line !pos 4 in
              pos := !pos + 4;
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some c -> c
                | None -> fail "bad \\u escape %s" hex
              in
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else fail "non-ASCII \\u escape unsupported"
          | c -> fail "unknown escape \\%c" c);
          go ()
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match line.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail "expected a number at %d" start;
    match float_of_string_opt (String.sub line start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number %s" (String.sub line start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> J_obj (parse_object ())
    | Some '"' -> J_str (parse_string ())
    | Some _ -> J_num (parse_number ())
    | None -> fail "unexpected end of line"
  and parse_object () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      []
    end
    else
      let rec fields acc =
        skip_ws ();
        let key = parse_string () in
        expect ':';
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            fields ((key, v) :: acc)
        | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
        | _ -> fail "expected ',' or '}' at %d" !pos
      in
      fields []
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage at %d" !pos;
  v

let event_of_jsonl line =
  match parse_json line with
  | exception Bad m -> Error m
  | J_num _ | J_str _ -> Error "top level is not an object"
  | J_obj fields -> (
      let get name =
        match List.assoc_opt name fields with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "missing field %s" name)
      in
      let int_field name =
        match get name with
        | Ok (J_num f) when Float.is_integer f && f >= 0.0 -> Ok (int_of_float f)
        | Ok _ -> Error (Printf.sprintf "field %s is not a non-negative integer" name)
        | Error _ as e -> e
      in
      let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
      let* seq = int_field "seq" in
      let* () = if seq >= 1 then Ok () else Error "seq must be positive" in
      let* at = match get "ts" with Ok (J_num f) -> Ok f | Ok _ -> Error "ts is not a number" | Error _ as e -> e in
      let* phase =
        match get "ph" with
        | Ok (J_str "B") -> Ok Begin
        | Ok (J_str "E") -> Ok End
        | Ok (J_str "I") -> Ok Instant
        | Ok _ -> Error "ph must be \"B\", \"E\" or \"I\""
        | Error _ as e -> e
      in
      let* span = int_field "span" in
      let* name =
        match get "name" with
        | Ok (J_str s) when s <> "" -> Ok s
        | Ok (J_str _) -> Error "name must be non-empty"
        | Ok _ -> Error "name is not a string"
        | Error _ as e -> e
      in
      let* labels =
        match get "labels" with
        | Ok (J_obj pairs) ->
            let rec strings acc = function
              | [] -> Ok (List.rev acc)
              | (k, J_str v) :: rest -> strings ((k, v) :: acc) rest
              | (k, _) :: _ -> Error (Printf.sprintf "label %s is not a string" k)
            in
            strings [] pairs
        | Ok _ -> Error "labels is not an object"
        | Error _ as e -> e
      in
      Ok { seq; at; name; phase; span; labels })

let validate_jsonl_line line = Result.map (fun (_ : event) -> ()) (event_of_jsonl line)
