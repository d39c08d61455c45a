(** The function dependence graph (Definition 4) and its strongly
    connected components.

    [V] is the set of defined functions; there is an edge from [f] to [g]
    iff [f]'s body contains an occurrence of the name [g]. The SCCs are the
    sets of mutually recursive functions; traversing them in reverse
    topological order (callees first) is exactly the order in which
    let-style qualifier polymorphism can generalize (Section 4.3). Tarjan's
    algorithm emits SCCs in that order directly. *)

open Cfront

type t = {
  sccs : string list list;
      (** reverse topological order: every callee's SCC precedes its
          callers' *)
  edges : (string, string list) Hashtbl.t;
}

(** Names a function's body mentions (including in local initializers and
    via function pointers — any occurrence counts, per Definition 4). *)
let mentions (f : Cast.fundef) : string list =
  let acc =
    List.fold_left
      (fun acc s -> Cast.fold_stmt_exprs (fun acc e -> Cast.expr_idents acc e) acc s)
      [] f.f_body
  in
  List.sort_uniq String.compare acc

let build (prog : Cprog.t) : t =
  let funs = Cprog.functions prog in
  let defined = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace defined f.Cast.f_name ()) funs;
  let edges = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let ms =
        List.filter
          (fun g -> Hashtbl.mem defined g && g <> f.Cast.f_name)
          (mentions f)
      in
      Hashtbl.replace edges f.Cast.f_name ms)
    funs;
  (* Tarjan's strongly connected components. *)
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (try Hashtbl.find edges v with Not_found -> []);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      (* pop the SCC *)
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if String.equal w v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter
    (fun f -> if not (Hashtbl.mem index f.Cast.f_name) then strongconnect f.Cast.f_name)
    funs;
  (* Tarjan emits each SCC after all SCCs it can reach, i.e. callees first;
     [!sccs] accumulated by consing is callers-first, so reverse. *)
  { sccs = List.rev !sccs; edges }

let scc_count t = List.length t.sccs

let largest_scc t =
  List.fold_left (fun m s -> max m (List.length s)) 0 t.sccs

(* Per-SCC dependency structure over the indices of [t.sccs], for
   {!wavefront_width}. An edge [f -> g] means [f] mentions [g], so [f]'s
   SCC depends on (must be analyzed after) [g]'s. [in_degree.(i)] counts
   the distinct SCCs that SCC [i] depends on; [dependents.(j)] lists the
   SCCs depending on [j] — the candidates released when [j] completes. *)
let scc_deps t : int array * int list array =
  let sccs = Array.of_list t.sccs in
  let n = Array.length sccs in
  let scc_of = Hashtbl.create 64 in
  Array.iteri (fun i scc -> List.iter (fun f -> Hashtbl.replace scc_of f i) scc) sccs;
  let in_degree = Array.make n 0 in
  let dependents = Array.make n [] in
  (* dedup (i, j) SCC pairs on a single packed int key: [n] is the SCC
     count, so [i * n + j] is injective — no tuple allocation, no
     polymorphic hashing *)
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun i scc ->
      List.iter
        (fun f ->
          List.iter
            (fun g ->
              match Hashtbl.find_opt scc_of g with
              | Some j when j <> i && not (Hashtbl.mem seen ((i * n) + j)) ->
                  Hashtbl.add seen ((i * n) + j) ();
                  in_degree.(i) <- in_degree.(i) + 1;
                  dependents.(j) <- i :: dependents.(j)
              | _ -> ())
            (try Hashtbl.find t.edges f with Not_found -> []))
        scc)
    sccs;
  (in_degree, dependents)

(* Maximum number of SCCs simultaneously ready under level-synchronous
   (Kahn) scheduling: an upper bound on useful analysis parallelism, and
   the figure [--stats] reports as the wavefront width. *)
let wavefront_width t =
  let in_degree, dependents = scc_deps t in
  let indeg = Array.copy in_degree in
  let frontier = ref [] in
  Array.iteri (fun i d -> if d = 0 then frontier := i :: !frontier) indeg;
  let width = ref 0 in
  while !frontier <> [] do
    width := max !width (List.length !frontier);
    let next = ref [] in
    List.iter
      (fun i ->
        List.iter
          (fun j ->
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then next := j :: !next)
          dependents.(i))
      !frontier;
    frontier := !next
  done;
  !width
