(** The function dependence graph (Definition 4) and its strongly
    connected components.

    [V] is the set of defined functions; there is an edge from [f] to [g]
    iff [f]'s body contains an occurrence of the name [g]. The SCCs are the
    sets of mutually recursive functions; traversing them in reverse
    topological order (callees first) is exactly the order in which
    let-style qualifier polymorphism can generalize (Section 4.3). Tarjan's
    algorithm emits SCCs in that order directly. *)

open Cfront

(* The graph on dense vertex ids: a function's id is the position of its
   name's first definition in program order, and a name defined twice
   keeps its last body (last definition wins, as in {!Cprog.merge}). *)
type graph = {
  names : Sym.t array;  (** id -> function name *)
  succ : int array array;
      (** id -> the other defined functions its body mentions, in name
          order *)
  scc_of : int array;  (** id -> index of its SCC in [sccs] *)
  members : int array array;  (** SCC index -> its member ids *)
}

type t = {
  sccs : Sym.t list list;
      (** reverse topological order: every callee's SCC precedes its
          callers' *)
  graph : graph;
}

(** Names a function's body mentions (including in local initializers and
    via function pointers — any occurrence counts, per Definition 4),
    distinct, in name order. *)
let mentions (f : Cast.fundef) : Sym.t list =
  let acc =
    List.fold_left
      (fun acc s -> Cast.fold_stmt_exprs (fun acc e -> Cast.expr_idents acc e) acc s)
      [] f.f_body
  in
  List.sort_uniq Sym.compare_names acc

(* Tarjan's strongly connected components over [succ], visiting vertices
   in id order and successors in array order. Returns the SCCs in
   emission order (callees first), each listing its members in the order
   they were pushed. *)
let tarjan (succ : int array array) : int array list =
  let n = Array.length succ in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    let ws = succ.(v) in
    for k = 0 to Array.length ws - 1 do
      let w = ws.(k) in
      if index.(w) < 0 then begin
        strongconnect w;
        if lowlink.(w) < lowlink.(v) then lowlink.(v) <- lowlink.(w)
      end
      else if on_stack.(w) && index.(w) < lowlink.(v) then
        lowlink.(v) <- index.(w)
    done;
    if lowlink.(v) = index.(v) then begin
      (* pop the SCC: the stack segment from [v] up *)
      let base = ref (!sp - 1) in
      while stack.(!base) <> v do
        decr base
      done;
      let scc = Array.sub stack !base (!sp - !base) in
      Array.iter (fun w -> on_stack.(w) <- false) scc;
      sp := !base;
      sccs := scc :: !sccs
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  List.rev !sccs

let build (prog : Cprog.t) : t =
  let funs = Cprog.functions prog in
  (* number the names densely, first definition first: [id_of] maps a
     symbol to its vertex, -1 for a name that defines no function *)
  let max_sym =
    List.fold_left (fun m (f : Cast.fundef) -> max m (f.f_name :> int)) (-1) funs
  in
  let id_of = Array.make (max_sym + 1) (-1) in
  let vertex (x : Sym.t) =
    let x = (x :> int) in
    if x <= max_sym then Array.unsafe_get id_of x else -1
  in
  let nfuns = List.length funs in
  let body = Array.make nfuns [] in
  let n = ref 0 and names = ref [] in
  List.iter
    (fun (f : Cast.fundef) ->
      let v =
        match vertex f.f_name with
        | -1 ->
            let v = !n in
            incr n;
            id_of.((f.f_name :> int)) <- v;
            names := f.f_name :: !names;
            v
        | v -> v
      in
      body.(v) <- f.f_body)
    funs;
  let n = !n in
  let names = Array.of_list (List.rev !names) in
  (* successors: distinct defined functions other than [v] itself, in
     name order *)
  let seen = Array.make n (-1) in
  let succ =
    Array.init n (fun v ->
        let mention acc x =
          let w = vertex x in
          if w >= 0 && w <> v && seen.(w) <> v then begin
            seen.(w) <- v;
            w :: acc
          end
          else acc
        in
        let expr acc e = Cast.fold_expr_vars mention acc e in
        let ws = Cast.fold_stmts_exprs expr [] body.(v) in
        let ws = Array.of_list ws in
        Array.sort (fun a b -> Sym.compare_names names.(a) names.(b)) ws;
        ws)
  in
  let members = Array.of_list (tarjan succ) in
  let scc_of = Array.make n 0 in
  Array.iteri (fun i scc -> Array.iter (fun v -> scc_of.(v) <- i) scc) members;
  let names_of ids = Array.fold_right (fun v acc -> names.(v) :: acc) ids [] in
  {
    sccs = Array.fold_right (fun scc acc -> names_of scc :: acc) members [];
    graph = { names; succ; scc_of; members };
  }

let scc_count t = Array.length t.graph.members

let largest_scc t =
  Array.fold_left (fun m s -> max m (Array.length s)) 0 t.graph.members

(* Per-SCC dependency structure over the indices of [t.sccs], for
   {!wavefront_width}. An edge [f -> g] means [f] mentions [g], so [f]'s
   SCC depends on (must be analyzed after) [g]'s. [in_degree.(i)] counts
   the distinct SCCs that SCC [i] depends on; [dependents.(j)] lists the
   SCCs depending on [j] — the candidates released when [j] completes. *)
let scc_deps t : int array * int list array =
  let g = t.graph in
  let n = Array.length g.members in
  let in_degree = Array.make n 0 in
  let dependents = Array.make n [] in
  (* [seen.(j) = i] once SCC [i]'s dependency on [j] is counted *)
  let seen = Array.make n (-1) in
  Array.iteri
    (fun i scc ->
      Array.iter
        (fun f ->
          Array.iter
            (fun w ->
              let j = g.scc_of.(w) in
              if j <> i && seen.(j) <> i then begin
                seen.(j) <- i;
                in_degree.(i) <- in_degree.(i) + 1;
                dependents.(j) <- i :: dependents.(j)
              end)
            g.succ.(f))
        scc)
    g.members;
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
