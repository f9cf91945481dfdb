(* Compares two sets of benchmark runs against the bounds in
   BENCHMARK.json:

     compare.exe PARENT_DIR CHANGE_DIR     (from the repository root)

   Each directory holds the files perf.exe wrote with -o, one per run.
   Runs are paired by workload and seed (in file-name order when a seed
   repeats). For every workload and end-to-end metric it prints each
   side's median and quartiles, the change's wins over its pairs, and a
   verdict:

   - improved: at least 10 pairs, the change wins at least 9 in 10 (ties
     count for neither), and the medians differ by more than the parent's
     own spread (the distance between its quartiles), in the better
     direction;
   - regressed: the change's median is worse than the parent's by more
     than the metric's bound;
   - unresolved: not regressed, but the parent's spread is wider than the
     bound, and not every change run beats every parent run;
   - unchanged: otherwise.

   It also flags any workload whose failure ratio rose. The exit code is 1
   when anything regressed or a failure ratio rose. *)

type metric = { name : string; lower_is_better : bool; bound : float }

type run = {
  workload : string;
  seed : float;
  values : (string * float) list;
  attempted : float;
  failed : float;
}

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let num j k = Option.bind (Json.member k j) Json.to_num

let metrics_of bench =
  List.filter_map
    (fun m ->
      let str k = Option.bind (Json.member k m) Json.to_str in
      match (str "name", str "better", num m "bound") with
      | Some name, Some better, Some bound -> Some { name; lower_is_better = better = "lower"; bound }
      | _ -> None)
    (Json.to_list (Option.value ~default:Json.Null (Json.member "end_to_end" bench)))

let runs_in dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         let path = Filename.concat dir f in
         match Json.parse (read_file path) with
         | exception Json.Parse_error e ->
             Printf.eprintf "skipping %s: %s\n" path e;
             None
         | j -> (
             let header = Option.value ~default:Json.Null (Json.member "header" j) in
             match (Option.bind (Json.member "workload" header) Json.to_str, Json.member "metrics" j) with
             | Some workload, Some (Json.Obj ms) ->
                 let values =
                   List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (num v "value")) ms
                 in
                 Some
                   {
                     workload;
                     seed = Option.value ~default:nan (num header "seed");
                     values;
                     attempted = Option.value ~default:0.0 (num j "attempted");
                     failed = Option.value ~default:0.0 (num j "failed");
                   }
             | _ ->
                 Printf.eprintf "skipping %s: not a perf.exe -o file\n" path;
                 None))

(* Pairs the k-th parent run of a seed with the k-th change run of it. *)
let pairs parent change =
  let by_seed runs =
    List.fold_left
      (fun acc r ->
        let prev = Option.value ~default:[] (List.assoc_opt r.seed acc) in
        (r.seed, prev @ [ r ]) :: List.remove_assoc r.seed acc)
      [] runs
  in
  let c = by_seed change in
  List.concat_map
    (fun (seed, ps) ->
      let cs = Option.value ~default:[] (List.assoc_opt seed c) in
      let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
      zip ps cs)
    (by_seed parent)

let () =
  let parent_dir, change_dir =
    match List.tl (Array.to_list Sys.argv) with
    | [ p; c ] -> (p, c)
    | _ ->
        prerr_endline "usage: compare.exe PARENT_DIR CHANGE_DIR";
        exit 2
  in
  let metrics = metrics_of (Json.parse (read_file "BENCHMARK.json")) in
  let parent = runs_in parent_dir and change = runs_in change_dir in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change)) in
  let bad = ref false in
  Printf.printf "%-11s %-22s %26s %26s %7s %8s %6s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "wins" "delta" "bound" "verdict";
  List.iter
    (fun w ->
      let of_w = List.filter (fun r -> r.workload = w) in
      let ps = of_w parent and cs = of_w change in
      let paired = pairs ps cs in
      List.iter
        (fun m ->
          let values runs = List.filter_map (fun r -> List.assoc_opt m.name r.values) runs in
          let pv = values ps and cv = values cs in
          if List.length pv < 2 || List.length cv < 2 then
            Printf.printf "%-11s %-22s %s\n" w m.name "too few runs"
          else begin
            let pm = Samples.median pv and cm = Samples.median cv in
            let pq1, pq3 = Samples.quartiles pv and cq1, cq3 = Samples.quartiles cv in
            let better a b = if m.lower_is_better then a < b else a > b in
            let wins =
              List.length
                (List.filter
                   (fun (p, c) ->
                     match (List.assoc_opt m.name p.values, List.assoc_opt m.name c.values) with
                     | Some pv, Some cv -> better cv pv
                     | _ -> false)
                   paired)
            in
            let n = List.length paired in
            let worse = (if m.lower_is_better then cm -. pm else pm -. cm) /. pm in
            let spread = (pq3 -. pq1) /. pm in
            let all_better =
              List.for_all (fun c -> List.for_all (fun p -> better c p) pv) cv
            in
            let verdict =
              if n >= 10 && float_of_int wins >= 0.9 *. float_of_int n && better cm pm
                 && Float.abs (cm -. pm) > pq3 -. pq1
              then "improved"
              else if worse > m.bound then begin
                bad := true;
                "REGRESSED"
              end
              else if spread > m.bound && not all_better then "unresolved"
              else "unchanged"
            in
            Printf.printf
              "%-11s %-22s %12.6g [%.5g, %.5g] %12.6g [%.5g, %.5g] %3d/%-3d %+7.2f%% %5.1f%%  %s\n" w
              m.name pm pq1 pq3 cm cq1 cq3 wins n (100.0 *. worse) (100.0 *. m.bound) verdict
          end)
        metrics;
      let fail_ratio runs =
        let a = List.fold_left (fun acc r -> acc +. r.attempted) 0.0 runs in
        let f = List.fold_left (fun acc r -> acc +. r.failed) 0.0 runs in
        if a = 0.0 then 0.0 else f /. a
      in
      let pf = fail_ratio ps and cf = fail_ratio cs in
      if cf > pf then begin
        bad := true;
        Printf.printf "%-11s FAIL RATIO ROSE: %.6g -> %.6g\n" w pf cf
      end)
    workloads;
  if !bad then exit 1
