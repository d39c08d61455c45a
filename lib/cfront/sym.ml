type t = int

(* id -> name and id -> hash, in minting order *)
let names = ref (Array.make 1024 "")
let hashes = ref (Array.make 1024 0)
let n = ref 0

(* open addressing over ids: a slot holds an id, or -1 when free; the
   load stays at or below one half *)
let slots = ref (Array.make 2048 (-1))

let hash_sub s i e =
  let h = ref 0 in
  for k = i to e - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s k)
  done;
  !h lxor (!h lsr 17)

let rec bytes_equal s i k j len =
  j = len
  || String.unsafe_get s (i + j) = String.unsafe_get k j
     && bytes_equal s i k (j + 1) len

let rec place slots h id =
  let mask = Array.length slots - 1 in
  let j = h land mask in
  if Array.unsafe_get slots j < 0 then slots.(j) <- id
  else place slots (j + 1) id

let grow () =
  let cap = 2 * Array.length !names in
  let nm = Array.make cap "" and hs = Array.make cap 0 in
  Array.blit !names 0 nm 0 !n;
  Array.blit !hashes 0 hs 0 !n;
  names := nm;
  hashes := hs;
  let sl = Array.make (2 * cap) (-1) in
  for id = 0 to !n - 1 do
    place sl hs.(id) id
  done;
  slots := sl

let mint name h =
  if !n = Array.length !names then grow ();
  let id = !n in
  !names.(id) <- name;
  !hashes.(id) <- h;
  place !slots h id;
  n := id + 1;
  id

(* the id of [s.[i..e-1]], whose hash is [h], probing from slot [j]; a
   top-level function, so a lookup allocates no closure *)
let rec probe s i e h j =
  let slots = !slots in
  let id = Array.unsafe_get slots j in
  if id < 0 then mint (String.sub s i (e - i)) h
  else if
    Array.unsafe_get !hashes id = h
    &&
    let k = Array.unsafe_get !names id in
    String.length k = e - i && bytes_equal s i k 0 (e - i)
  then id
  else probe s i e h ((j + 1) land (Array.length slots - 1))

let intern_sub s i e =
  let h = hash_sub s i e in
  probe s i e h (h land (Array.length !slots - 1))

let intern s = intern_sub s 0 (String.length s)
let name id = !names.(id)
let count () = !n
let equal (a : t) b = a = b
let compare (a : t) b = Int.compare a b
let compare_names a b = String.compare (name a) (name b)

module Tbl = struct
  type sym = t
  type 'a t = { mutable data : 'a option array }

  let create () = { data = [||] }

  let find_opt t (s : sym) =
    if s < Array.length t.data then Array.unsafe_get t.data s else None

  let mem t s = Option.is_some (find_opt t s)

  let replace t (s : sym) v =
    let len = Array.length t.data in
    if s >= len then begin
      let cap = max (s + 1) (min (2 * len) (count ())) in
      let d = Array.make cap None in
      Array.blit t.data 0 d 0 len;
      t.data <- d
    end;
    t.data.(s) <- Some v

  let remove t (s : sym) = if s < Array.length t.data then t.data.(s) <- None
end
