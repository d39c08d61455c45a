(** Garbage-collector tuning for batch analysis runs.

    The analyzer's allocation profile is bursty: constraint generation
    allocates short-lived cells, tuples and closure records at a high
    rate (nearly all dead by the next statement), while the arena columns
    are long-lived flat arrays the GC never needs to walk. The stock
    runtime defaults (256 kwords of minor heap, space_overhead 120) make
    the minor collector run thousands of times per megaline and promote
    live-at-the-wrong-moment temporaries into the major heap, where
    compaction churn pays for them again.

    The [Batch] profile numbers come from a sweep on the 400-kloc
    project corpus (see EXPERIMENTS.md). The surprise: enlarging the
    minor heap does NOT pay — 4 Mwords and up measurably regressed
    serial analysis (a 32 Mword nursery is a 256 MB working set, which
    evicts the arena columns from cache), and 64 Mwords was 6x slower.
    What held up: [space_overhead = 200] (fewer major slices, neutral
    peak heap because the arena dominates it anyway) and a modest
    4x-default nursery of 1 Mword, which cuts minor-collection count
    while staying cache-resident.

    Selection: an explicit [--gc] CLI flag wins; otherwise the
    [TYPEQUAL_GC] environment variable; otherwise [Off] (don't touch the
    runtime). Settings:
    - ["off"] (or empty): leave the runtime alone;
    - ["batch"]: the tuned batch profile;
    - a comma-separated [k=v] list, e.g.
      ["minor_heap_size=8388608,space_overhead=200"], for experiments —
      unknown keys are an [Error], not silently ignored. *)

type t =
  | Off
  | Batch
  | Custom of (string * int) list

let batch_minor_words = 1024 * 1024
let batch_space_overhead = 200

let known_keys =
  [ "minor_heap_size"; "major_heap_increment"; "space_overhead";
    "max_overhead"; "allocation_policy" ]

let parse (s : string) : (t, string) result =
  match String.lowercase_ascii (String.trim s) with
  | "" | "off" | "default" -> Ok Off
  | "batch" -> Ok Batch
  | spec -> (
      let parts = String.split_on_char ',' spec in
      let rec go acc = function
        | [] -> Ok (Custom (List.rev acc))
        | p :: tl -> (
            match String.index_opt p '=' with
            | None -> Error (Printf.sprintf "gc setting %S is not k=v" p)
            | Some i -> (
                let k = String.trim (String.sub p 0 i) in
                let v =
                  String.trim
                    (String.sub p (i + 1) (String.length p - i - 1))
                in
                if not (List.mem k known_keys) then
                  Error
                    (Printf.sprintf "unknown gc key %S (known: %s)" k
                       (String.concat ", " known_keys))
                else
                  match int_of_string_opt v with
                  | None -> Error (Printf.sprintf "gc value %S not an int" v)
                  | Some n -> go ((k, n) :: acc) tl))
      in
      go [] parts)

let apply (t : t) : unit =
  match t with
  | Off -> ()
  | Batch ->
      Gc.set
        {
          (Gc.get ()) with
          minor_heap_size = batch_minor_words;
          space_overhead = batch_space_overhead;
        }
  | Custom kvs ->
      let c = Gc.get () in
      let c =
        List.fold_left
          (fun c (k, v) ->
            match k with
            | "minor_heap_size" -> { c with Gc.minor_heap_size = v }
            | "major_heap_increment" -> { c with Gc.major_heap_increment = v }
            | "space_overhead" -> { c with Gc.space_overhead = v }
            | "max_overhead" -> { c with Gc.max_overhead = v }
            | "allocation_policy" -> { c with Gc.allocation_policy = v }
            | _ -> c (* unreachable: [parse] rejected it *))
          c kvs
      in
      Gc.set c

(** Resolve and apply the setting: [flag] (when [Some] and non-empty)
    wins over [TYPEQUAL_GC]; absent both, the runtime is left alone.
    Returns the human-readable description of what was applied, or
    [Error] on a malformed spec (the caller decides whether that is
    fatal). *)
let setup ?flag () : (string, string) result =
  let spec =
    match flag with
    | Some f when String.trim f <> "" -> Some f
    | _ -> Sys.getenv_opt "TYPEQUAL_GC"
  in
  match spec with
  | None -> Ok "off"
  | Some s -> (
      match parse s with
      | Error _ as e -> e
      | Ok t ->
          apply t;
          Ok
            (match t with
            | Off -> "off"
            | Batch ->
                Printf.sprintf "batch (minor_heap_size=%d, space_overhead=%d)"
                  batch_minor_words batch_space_overhead
            | Custom kvs ->
                String.concat ","
                  (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs)))
