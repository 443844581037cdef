module Prng = Xmark_prng.Prng

(* Common English words seeding the frequent ranks of the synthetic
   vocabulary.  Q14's needle "gold" is deliberately absent here; it is
   pinned at a fixed middle rank below so its document frequency is stable
   across dictionary edits. *)
let common_words =
  [|
    "the"; "and"; "that"; "with"; "this"; "from"; "they"; "will"; "would";
    "there"; "their"; "what"; "about"; "which"; "when"; "make"; "like";
    "time"; "just"; "know"; "take"; "people"; "into"; "year"; "your";
    "good"; "some"; "could"; "them"; "other"; "than"; "then"; "look";
    "only"; "come"; "over"; "think"; "also"; "back"; "after"; "work";
    "first"; "well"; "even"; "want"; "because"; "these"; "give"; "most";
    "thing"; "find"; "here"; "many"; "life"; "world"; "still"; "hand";
    "high"; "keep"; "last"; "great"; "same"; "might"; "house"; "shall";
    "down"; "should"; "very"; "through"; "where"; "much"; "before"; "right";
    "such"; "long"; "place"; "little"; "never"; "leave"; "while"; "again";
    "night"; "away"; "every"; "heart"; "love"; "upon"; "head"; "light";
    "father"; "mother"; "water"; "under"; "against"; "master"; "honour";
    "death"; "enough"; "power"; "grace"; "fortune"; "nature"; "blood";
    "heaven"; "friend"; "sweet"; "noble"; "queen"; "king"; "duke"; "lord";
    "lady"; "fair"; "true"; "poor"; "rich"; "young"; "brave"; "gentle";
    "word"; "name"; "speak"; "hear"; "answer"; "follow"; "stand"; "bring";
    "better"; "honest"; "strange"; "present"; "heavy"; "quick"; "purpose";
    "letter"; "matter"; "reason"; "state"; "court"; "battle"; "sword";
    "crown"; "throne"; "castle"; "garden"; "forest"; "river"; "mountain";
    "summer"; "winter"; "morning"; "evening"; "tongue"; "spirit"; "shadow";
    "silver"; "stone"; "horse"; "tower"; "bridge"; "market"; "island";
    "ship"; "voyage"; "treasure"; "jewel"; "pearl"; "velvet"; "silk";
    "amber"; "copper"; "marble"; "ivory"; "scarlet"; "crimson"; "purple";
  |]

(* Values that never vary per document. *)
let country_pool =
  [|
    "United States"; "Germany"; "France"; "United Kingdom"; "Italy";
    "Netherlands"; "Spain"; "Japan"; "China"; "Australia"; "Canada";
    "Brazil"; "Argentina"; "Mexico"; "India"; "Russia"; "Sweden";
    "Norway"; "Denmark"; "Finland"; "Belgium"; "Switzerland"; "Austria";
    "Poland"; "Portugal"; "Greece"; "Turkey"; "Egypt"; "South Africa";
    "Kenya"; "Nigeria"; "Morocco"; "Israel"; "South Korea"; "Singapore";
    "Malaysia"; "Thailand"; "Indonesia"; "Philippines"; "New Zealand";
    "Chile"; "Peru"; "Colombia"; "Venezuela"; "Ireland";
  |]

let vowels = [| "a"; "e"; "i"; "o"; "u"; "ou"; "ea"; "ai"; "oo" |]

let onsets =
  [|
    "b"; "c"; "d"; "f"; "g"; "h"; "j"; "k"; "l"; "m"; "n"; "p"; "r"; "s";
    "t"; "v"; "w"; "br"; "cr"; "dr"; "fl"; "gr"; "pl"; "pr"; "sl"; "st";
    "str"; "th"; "tr"; "ch"; "sh"; "wh"; "qu"; "sp"; "sc"; "bl"; "cl";
  |]

let codas = [| ""; ""; ""; "n"; "r"; "s"; "t"; "l"; "m"; "d"; "k"; "nd"; "nt"; "st"; "ck"; "ng" |]

type t = {
  words : string array;  (* rank order, most frequent first *)
  zipf : Prng.Zipf.t;
  gold_rank : int;
  first_names : string array;
  last_names : string array;
  hosts : string array;
  cities : string array;
  street_words : string array;
  provinces : string array;
  country_zipf : Prng.Zipf.t;
}

let vocabulary_count = 17_000

(* Pinned so that with Zipf(s=1) over 17,000 ranks the word appears roughly
   once every ~2,600 words — a handful of hits per hundred descriptions,
   matching the "restrictive but non-empty" selectivity Q14 wants. *)
let pinned_gold_rank = 420

let synth_word g =
  let syllables = 1 + Prng.int g 3 in
  let buf = Buffer.create 12 in
  for _ = 1 to syllables do
    Buffer.add_string buf (Prng.pick g onsets);
    Buffer.add_string buf (Prng.pick g vowels)
  done;
  Buffer.add_string buf (Prng.pick g codas);
  Buffer.contents buf

let capitalize s =
  if s = "" then s else String.mapi (fun i c -> if i = 0 then Char.uppercase_ascii c else c) s

(* Deterministic pool of distinct words, independent of document seed. *)
let build_pool g seen count =
  let out = Array.make count "" in
  let i = ref 0 in
  while !i < count do
    let w = synth_word g in
    if not (Hashtbl.mem seen w) then begin
      Hashtbl.add seen w ();
      out.(!i) <- w;
      incr i
    end
  done;
  out

let dictionary_seed = 0x1234_5678_9ABC_DEF0L

let create () =
  let g = Prng.create ~seed:dictionary_seed () in
  let seen = Hashtbl.create (4 * vocabulary_count) in
  Array.iter (fun w -> Hashtbl.replace seen w ()) common_words;
  Hashtbl.replace seen "gold" ();
  let synth = build_pool g seen (vocabulary_count - Array.length common_words - 1) in
  let words = Array.make vocabulary_count "" in
  let n_common = Array.length common_words in
  Array.blit common_words 0 words 0 n_common;
  let cursor = ref 0 in
  for rank = n_common to vocabulary_count - 1 do
    if rank = pinned_gold_rank then words.(rank) <- "gold"
    else begin
      words.(rank) <- synth.(!cursor);
      incr cursor
    end
  done;
  let first_names = Array.map capitalize (build_pool g seen 400) in
  let last_names = Array.map capitalize (build_pool g seen 600) in
  let hosts =
    Array.map (fun w -> w ^ (if Prng.bool g then ".com" else ".org")) (build_pool g seen 120)
  in
  let cities = Array.map capitalize (build_pool g seen 250) in
  let street_words = Array.map capitalize (build_pool g seen 300) in
  let provinces = Array.map capitalize (build_pool g seen 60) in
  {
    words;
    zipf = Prng.Zipf.create ~n:vocabulary_count ~s:1.0;
    gold_rank = pinned_gold_rank;
    first_names;
    last_names;
    hosts;
    cities;
    street_words;
    provinces;
    country_zipf = Prng.Zipf.create ~n:(Array.length country_pool) ~s:1.1;
  }

let vocabulary_size d = Array.length d.words

let word d rank = d.words.(rank)

let sample_word d g = d.words.(Prng.Zipf.sample d.zipf g)

let gold_rank d = d.gold_rank

let sample_sentence d g n =
  let buf = Buffer.create (n * 7) in
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char buf ' ';
    Buffer.add_string buf (sample_word d g)
  done;
  Buffer.contents buf

let first_name d g = Prng.pick g d.first_names
let last_name d g = Prng.pick g d.last_names
let mail_host d g = Prng.pick g d.hosts
let city d g = Prng.pick g d.cities
let street_word d g = Prng.pick g d.street_words
let province d g = Prng.pick g d.provinces

let country d g = country_pool.(Prng.Zipf.sample d.country_zipf g)
